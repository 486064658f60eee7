//! Request coalescing for the serving layer: concurrent recommendations
//! for the same `(zoo fingerprint, target, strategy, options)` collapse
//! into one Workbench pass, and a repeat of an answered graph-learning
//! one is a single store lookup.
//!
//! A recommendation service sees bursts of identical work: many clients
//! asking for the same target's ranking at once (a fresh dataset just
//! landed, a dashboard fans out). Every [`evaluate`] call is a pure
//! function of `(zoo, strategy, target, options)`, so running it once per
//! burst and sharing the outcome is behaviour-preserving by construction —
//! the same argument that makes the registry's evict-then-rebuild
//! bit-identical.
//!
//! The mechanism mirrors the registry's `BuildSlot`: the first request in
//! (the **leader**) publishes a per-key pass cell and computes; racers
//! (**followers**) find the cell and block on its condvar until the leader
//! publishes the shared outcome. A configurable **batch window** makes the
//! leader wait briefly before computing, widening the net for followers
//! that arrive just behind it — worth it when the pass itself is much more
//! expensive than the window (cold caches), a no-op default otherwise.
//!
//! Passes of graph-learning strategies sit behind the outcome memo
//! ([`Workbench::outcome`](crate::artifacts::Workbench::outcome), the
//! store's [`ArtifactKind::Outcome`](crate::store::ArtifactKind::Outcome)
//! cache): a request first looks its key up there and only elects a
//! leader on a miss. The leader's outcome is inserted into the memo
//! *before* the pass is published and retired, so a request arriving
//! after the burst always finds it — no second pass for the same key.
//!
//! Locks here sit at rank `coalesce` (see `crate::sync` and
//! `tg-check.toml`): the cell mutex is only ever held for state flips and
//! waits, never across the evaluation itself, so the store/cache ranks
//! below are reached with no coalescing lock held. If a leader panics
//! mid-pass, a drop guard marks the cell abandoned and wakes every
//! follower, which then fall back to evaluating directly — a lost
//! optimisation, never a hang — and the unwind skips the memo insert,
//! so an abandoned pass leaves nothing behind.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tg_zoo::DatasetId;

use crate::config::EvalOptions;
use crate::evaluate::{evaluate, EvalOutcome};
use crate::registry::ZooHandle;
use crate::store::OutcomeKey;
use crate::strategy::Strategy;
use crate::sync::{rank_guard, unpoisoned, Rank};

/// One coalescing key: the zoo fingerprint plus the memo's own
/// [`OutcomeKey`] (target, strategy label, options digest). Everything
/// `evaluate` reads is in the key — only *identical* work may share a
/// pass.
type PassKey = (u64, OutcomeKey);

/// State of one in-flight pass.
enum PassState {
    /// The leader is still computing (or waiting out the batch window).
    Pending,
    /// The leader published the shared outcome.
    Done(Arc<EvalOutcome>),
    /// The leader unwound without publishing; followers must fall back.
    Abandoned,
}

/// One in-flight pass: followers wait on `cv` until the leader flips
/// `pass` out of [`PassState::Pending`].
struct PassCell {
    pass: Mutex<PassState>,
    cv: Condvar,
}

/// Per-request coalescing telemetry, surfaced by the server's `/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Passes actually computed (one per burst).
    pub leaders: u64,
    /// Requests served from another request's in-flight pass.
    pub followers: u64,
    /// Followers that found an abandoned pass and recomputed directly
    /// (only possible after a leader panicked mid-evaluation).
    pub fallbacks: u64,
}

impl CoalesceStats {
    /// One-line rendering for run summaries and server logs.
    pub fn render(&self) -> String {
        format!(
            "coalesce: {} passes, {} coalesced, {} fallbacks",
            self.leaders, self.followers, self.fallbacks
        )
    }
}

/// Coalesces concurrent identical evaluations into single shared passes.
/// See the [module docs](self) for the protocol.
///
/// ```
/// use std::time::Duration;
/// use tg_zoo::{Modality, ZooConfig};
/// use transfergraph::{Coalescer, EvalOptions, RegistryOptions, Strategy, ZooRegistry};
///
/// let registry = ZooRegistry::new(RegistryOptions::default());
/// let handle = registry.get_or_build(&ZooConfig::small(7));
/// let target = handle.zoo().targets_of(Modality::Image)[0];
/// let coalescer = Coalescer::new(Duration::ZERO);
/// let outcome = coalescer.evaluate(
///     &handle,
///     &Strategy::lr_baseline(),
///     target,
///     &EvalOptions::default(),
/// );
/// assert_eq!(outcome.dataset, target);
/// assert_eq!(coalescer.stats().leaders, 1);
/// ```
pub struct Coalescer {
    window: Duration,
    passes: Mutex<HashMap<PassKey, Arc<PassCell>>>,
    leaders: AtomicU64,
    followers: AtomicU64,
    fallbacks: AtomicU64,
}

impl Coalescer {
    /// New coalescer. `window` is how long a leader waits before computing
    /// so followers can pile on; `Duration::ZERO` (the usual default)
    /// coalesces only requests that overlap an already-running pass.
    pub fn new(window: Duration) -> Self {
        Coalescer {
            window,
            passes: Mutex::new(HashMap::new()),
            leaders: AtomicU64::new(0),
            followers: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The configured batch window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            leaders: self.leaders.load(Ordering::Relaxed),
            followers: self.followers.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Evaluates `strategy` on `target` over `handle`'s workbench,
    /// serving a repeat of a graph-learning strategy from the outcome
    /// memo and coalescing concurrent
    /// misses carrying the same `(fingerprint, target, strategy label,
    /// options)` key. Exactly one caller per burst computes; everyone
    /// receives the same `Arc`'d outcome, bit-identical to an uncoalesced
    /// [`evaluate`] call.
    pub fn evaluate(
        &self,
        handle: &ZooHandle,
        strategy: &Strategy,
        target: DatasetId,
        opts: &EvalOptions,
    ) -> Arc<EvalOutcome> {
        let wb = handle.workbench();
        self.evaluate_with(handle, strategy, target, opts, || {
            evaluate(wb, strategy, target, opts)
        })
    }

    /// [`evaluate`](Coalescer::evaluate) with the evaluation itself
    /// supplied by the caller, so tests can count or fail it.
    fn evaluate_with(
        &self,
        handle: &ZooHandle,
        strategy: &Strategy,
        target: DatasetId,
        opts: &EvalOptions,
        compute: impl FnOnce() -> EvalOutcome,
    ) -> Arc<EvalOutcome> {
        let key: PassKey = (
            handle.fingerprint(),
            OutcomeKey::new(target, strategy, opts),
        );
        // A leader parks its guard here instead of publishing inside the
        // pass: dropping it after `outcome` returns means the memo holds
        // the result before the pass retires.
        let mut leader = None;
        let outcome = handle.workbench().outcome(strategy, target, opts, || {
            self.pass(key, &mut leader, compute)
        });
        drop(leader); // publishes Done, wakes followers, retires the key
        outcome
    }

    /// Leads or follows the pass for `key` (a memo miss). A leader hands
    /// its armed guard back through `leader`; if the evaluation unwinds
    /// first, the guard drops here and abandons the pass instead.
    fn pass<'a>(
        &'a self,
        key: PassKey,
        leader: &mut Option<LeaderGuard<'a>>,
        compute: impl FnOnce() -> EvalOutcome,
    ) -> Arc<EvalOutcome> {
        let (cell, is_leader) = {
            let _rank = rank_guard(Rank::Coalesce);
            let mut passes = unpoisoned(self.passes.lock());
            match passes.get(&key) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let cell = Arc::new(PassCell {
                        pass: Mutex::new(PassState::Pending),
                        cv: Condvar::new(),
                    });
                    passes.insert(key.clone(), Arc::clone(&cell));
                    (cell, true)
                }
            }
        };

        if is_leader {
            self.leaders.fetch_add(1, Ordering::Relaxed);
            // If the evaluation below unwinds, this guard abandons the
            // cell and wakes the followers instead of leaving them parked
            // on the condvar forever.
            let mut guard = LeaderGuard {
                coalescer: self,
                key,
                cell,
                outcome: None,
            };
            if !self.window.is_zero() {
                std::thread::sleep(self.window);
            }
            // No coalescing lock is held here: the evaluation reaches the
            // store/cache ranks with a clean stack.
            let outcome = Arc::new(compute());
            guard.outcome = Some(Arc::clone(&outcome));
            *leader = Some(guard);
            outcome
        } else {
            self.followers.fetch_add(1, Ordering::Relaxed);
            {
                let rank = rank_guard(Rank::Coalesce);
                let mut pass = unpoisoned(cell.pass.lock());
                loop {
                    match &*pass {
                        // The wait releases the cell mutex while parked, so
                        // the rank is released with it and re-asserted on
                        // wake (`RankGuard::suspended`).
                        PassState::Pending => {
                            pass = rank.suspended(|| unpoisoned(cell.cv.wait(pass)));
                        }
                        PassState::Done(outcome) => return Arc::clone(outcome),
                        PassState::Abandoned => break,
                    }
                }
            }
            // The leader unwound without a result; compute directly. Same
            // deterministic function, so the burst still agrees bitwise.
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            Arc::new(compute())
        }
    }
}

/// Publishes the leader's result (or abandonment, if the leader unwound
/// before setting `outcome`) exactly once, on drop.
struct LeaderGuard<'a> {
    coalescer: &'a Coalescer,
    key: PassKey,
    cell: Arc<PassCell>,
    outcome: Option<Arc<EvalOutcome>>,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        {
            let _rank = rank_guard(Rank::Coalesce);
            let mut pass = unpoisoned(self.cell.pass.lock());
            *pass = match self.outcome.take() {
                Some(outcome) => PassState::Done(outcome),
                None => PassState::Abandoned,
            };
            self.cell.cv.notify_all();
        }
        // Retire the key so the next burst starts a fresh pass. Taking the
        // map after the cell is equal-rank nesting (both `coalesce`).
        let _rank = rank_guard(Rank::Coalesce);
        unpoisoned(self.coalescer.passes.lock()).remove(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{RegistryOptions, ZooRegistry};
    use crate::store::{ArtifactKind, TierKind};
    use tg_zoo::{Modality, ZooConfig};

    fn setup(seed: u64) -> (ZooRegistry, Strategy, EvalOptions) {
        let registry = ZooRegistry::new(RegistryOptions::default());
        let _ = registry.get_or_build(&ZooConfig::small(seed));
        (registry, Strategy::lr_baseline(), EvalOptions::default())
    }

    #[test]
    fn single_call_matches_direct_evaluate_bitwise() {
        let (registry, strategy, opts) = setup(301);
        let handle = registry.get_or_build(&ZooConfig::small(301));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        let coalescer = Coalescer::new(Duration::ZERO);
        let coalesced = coalescer.evaluate(&handle, &strategy, target, &opts);
        let direct = evaluate(handle.workbench(), &strategy, target, &opts);
        assert_eq!(coalesced.predictions, direct.predictions);
        assert_eq!(coalesced.pearson, direct.pearson);
        let stats = coalescer.stats();
        assert_eq!((stats.leaders, stats.followers, stats.fallbacks), (1, 0, 0));
    }

    #[test]
    fn concurrent_same_key_requests_share_one_pass() {
        let (registry, strategy, opts) = setup(302);
        let handle = registry.get_or_build(&ZooConfig::small(302));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        // A wide window so every thread spawned below lands inside the
        // leader's wait, making follower counts deterministic.
        let coalescer = Coalescer::new(Duration::from_millis(300));
        let outcomes: Vec<Arc<EvalOutcome>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..6)
                .map(|_| scope.spawn(|| coalescer.evaluate(&handle, &strategy, target, &opts)))
                .collect();
            spawned.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for o in &outcomes[1..] {
            assert!(
                Arc::ptr_eq(&outcomes[0], o),
                "all coalesced callers share one outcome allocation"
            );
        }
        let stats = coalescer.stats();
        assert_eq!(stats.leaders, 1, "exactly one pass computed");
        assert_eq!(stats.followers, 5);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn different_keys_do_not_coalesce() {
        let (registry, strategy, opts) = setup(303);
        let handle = registry.get_or_build(&ZooConfig::small(303));
        let targets = handle.zoo().targets_of(Modality::Image);
        let coalescer = Coalescer::new(Duration::ZERO);
        let a = coalescer.evaluate(&handle, &strategy, targets[0], &opts);
        let b = coalescer.evaluate(&handle, &strategy, targets[1], &opts);
        assert_ne!(a.dataset, b.dataset);
        assert_eq!(coalescer.stats().leaders, 2);
        // Different strategies on one target are distinct keys too.
        let c = coalescer.evaluate(&handle, &Strategy::LogMe, targets[0], &opts);
        assert_ne!(c.strategy, a.strategy);
        assert_eq!(coalescer.stats().leaders, 3);
    }

    #[test]
    fn sequential_bursts_start_fresh_passes() {
        let (registry, strategy, opts) = setup(304);
        let handle = registry.get_or_build(&ZooConfig::small(304));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        let coalescer = Coalescer::new(Duration::ZERO);
        let first = coalescer.evaluate(&handle, &strategy, target, &opts);
        let second = coalescer.evaluate(&handle, &strategy, target, &opts);
        assert!(
            !Arc::ptr_eq(&first, &second),
            "completed passes are retired, not cached"
        );
        assert_eq!(first.predictions, second.predictions);
        assert_eq!(coalescer.stats().leaders, 2);
    }

    /// Memory-tier entries of the handle's outcome memo.
    fn memo_entries(handle: &ZooHandle) -> u64 {
        handle
            .store()
            .tier_stats()
            .into_iter()
            .filter(|(kind, tier, _)| *kind == ArtifactKind::Outcome && *tier == TierKind::Memory)
            .map(|(_, _, s)| s.entries)
            .sum()
    }

    /// A stand-in outcome, so memo tests need not pay for a real
    /// graph-learning evaluation.
    fn fake_outcome(target: DatasetId, score: f64) -> EvalOutcome {
        EvalOutcome {
            dataset: target,
            strategy: Strategy::transfer_graph_default().label(),
            predictions: vec![score],
            ground_truth: vec![0.5],
            models: vec![tg_zoo::ModelId(0)],
            pearson: None,
            spearman: None,
            top5_accuracy: 0.5,
        }
    }

    #[test]
    fn repeat_of_a_graph_strategy_is_served_from_the_memo() {
        let (registry, _, opts) = setup(306);
        let handle = registry.get_or_build(&ZooConfig::small(306));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        let tg = Strategy::transfer_graph_default();
        let coalescer = Coalescer::new(Duration::ZERO);
        let first =
            coalescer.evaluate_with(&handle, &tg, target, &opts, || fake_outcome(target, 0.25));
        assert!(
            unpoisoned(coalescer.passes.lock()).is_empty(),
            "completed passes are retired"
        );
        let second = coalescer.evaluate_with(&handle, &tg, target, &opts, || {
            panic!("a repeat must not evaluate")
        });
        assert!(Arc::ptr_eq(&first, &second), "the repeat is the memo entry");
        assert_eq!(coalescer.stats().leaders, 1, "no second pass");
        assert_eq!(memo_entries(&handle), 1);
        // Other options are another key: evaluated, and memoized apart.
        let other = EvalOptions {
            seed: opts.seed + 1,
            ..opts.clone()
        };
        let third =
            coalescer.evaluate_with(&handle, &tg, target, &other, || fake_outcome(target, 0.75));
        assert_eq!(third.predictions, vec![0.75]);
        assert_eq!(memo_entries(&handle), 2);
    }

    #[test]
    fn different_options_never_coalesce() {
        let (registry, _, opts) = setup(307);
        let handle = registry.get_or_build(&ZooConfig::small(307));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        // Random scores depend on the evaluation seed alone, so a request
        // that joined the other seed's pass would get the wrong ranking.
        let strategy = Strategy::Random;
        let other = EvalOptions {
            seed: opts.seed + 1,
            ..opts.clone()
        };
        // A wide window: both calls overlap, so only the key keeps them
        // apart.
        let coalescer = Coalescer::new(Duration::from_millis(300));
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| coalescer.evaluate(&handle, &strategy, target, &opts));
            let b = scope.spawn(|| coalescer.evaluate(&handle, &strategy, target, &other));
            (a.join().unwrap(), b.join().unwrap())
        });
        let stats = coalescer.stats();
        assert_eq!((stats.leaders, stats.followers), (2, 0));
        let direct = |o: &EvalOptions| evaluate(handle.workbench(), &strategy, target, o);
        assert_eq!(a.predictions, direct(&opts).predictions);
        assert_eq!(b.predictions, direct(&other).predictions);
        assert_ne!(a.predictions, b.predictions);
    }

    #[test]
    fn panicking_leader_abandons_its_pass_and_memoizes_nothing() {
        let (registry, _, opts) = setup(308);
        let handle = registry.get_or_build(&ZooConfig::small(308));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        let tg = Strategy::transfer_graph_default();
        let coalescer = Coalescer::new(Duration::ZERO);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            coalescer.evaluate_with(&handle, &tg, target, &opts, || {
                panic!("evaluation failed mid-pass")
            })
        }));
        assert!(unwound.is_err());
        assert!(
            unpoisoned(coalescer.passes.lock()).is_empty(),
            "the abandoned key is retired"
        );
        assert_eq!(
            memo_entries(&handle),
            0,
            "an abandoned leader inserts nothing"
        );
        // The same key is computed afresh next time, and memoized then.
        let ok = coalescer.evaluate_with(&handle, &tg, target, &opts, || fake_outcome(target, 0.5));
        assert_eq!(ok.predictions, vec![0.5]);
        assert_eq!(memo_entries(&handle), 1);
    }

    #[test]
    fn abandoned_leader_wakes_followers_into_fallback() {
        let (registry, strategy, opts) = setup(305);
        let handle = registry.get_or_build(&ZooConfig::small(305));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        let coalescer = Coalescer::new(Duration::ZERO);
        let key: PassKey = (
            handle.fingerprint(),
            OutcomeKey::new(target, &strategy, &opts),
        );

        // Simulate a leader that unwinds mid-pass: publish a pending cell,
        // then drop the guard with no outcome attached.
        let cell = Arc::new(PassCell {
            pass: Mutex::new(PassState::Pending),
            cv: Condvar::new(),
        });
        unpoisoned(coalescer.passes.lock()).insert(key.clone(), Arc::clone(&cell));

        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| coalescer.evaluate(&handle, &strategy, target, &opts));
            // Give the follower time to park on the condvar, then abandon.
            std::thread::sleep(Duration::from_millis(50));
            drop(LeaderGuard {
                coalescer: &coalescer,
                key: key.clone(),
                cell: Arc::clone(&cell),
                outcome: None,
            });
            let outcome = waiter.join().unwrap();
            assert_eq!(outcome.dataset, target);
        });
        let stats = coalescer.stats();
        assert_eq!(stats.fallbacks, 1, "follower recomputed after abandon");
        assert!(
            unpoisoned(coalescer.passes.lock()).is_empty(),
            "abandoned key retired from the map"
        );
    }
}
