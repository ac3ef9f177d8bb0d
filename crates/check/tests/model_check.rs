//! Model-check harnesses for the mssp transport: the SPSC/MPSC rings,
//! the doorbell, the delta-arena recycling protocol, and the Condvar
//! channel — all running on the real `mssp-core` code via its `sync`
//! seam (feature `model-check`), under the deterministic scheduler.
//!
//! Two kinds of tests:
//!
//! * **Invariant harnesses** (`mc_*`): the stress-test invariants from
//!   `crates/core/tests/ring_stress.rs`, re-proved bounded-exhaustively —
//!   FIFO across wraparound, no loss / no duplication on disconnect,
//!   no lost doorbell wakeup, no leaked or double-recycled payload.
//! * **Mutation (teeth) tests** (`mutation_*`): arm a seeded ordering
//!   bug from `mssp_core::mutation` and require the checker to produce a
//!   counterexample — then parse and replay its trace to prove the
//!   counterexample is reproducible, not a flake.
//!
//! The mutation flags are process globals, so every test here serializes
//! on one lock and disarms the flags on drop (panic-safe).

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use mssp_check::leak::Tracked;
use mssp_check::{check, replay, thread, Config, FailureKind, Trace};
use mssp_core::chan;
use mssp_core::mutation;
use mssp_core::ring::{mpsc, spsc, TryRecvError};
use mssp_machine::{Cell, DeltaArena};

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serialize tests and guarantee mutations are disarmed afterwards, even
/// when the test panics mid-run.
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        mutation::reset_all();
    }
}

/// Takes the lock *before* disarming: resetting first would let a test
/// still waiting for the lock disarm the mutation of the test holding it.
fn serial() -> Serial {
    let guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    mutation::reset_all();
    Serial(guard)
}

fn cfg() -> Config {
    // trace_dir / max_schedules come from Config::default(), which honors
    // MSSP_CHECK_TRACE_DIR and MSSP_CHECK_MAX_SCHEDULES so CI can collect
    // failing traces as artifacts and raise the budget.
    Config {
        preemption_bound: 2,
        stale_read_bound: 2,
        ..Config::default()
    }
}

// ---------------------------------------------------------------------------
// Invariant harnesses
// ---------------------------------------------------------------------------

/// SPSC FIFO across the wraparound boundary: capacity 2, four items, so
/// the indices lap the mask twice while producer and consumer interleave
/// arbitrarily. Order and values must survive every schedule.
#[test]
fn mc_spsc_wraparound_fifo() {
    let _g = serial();
    let report = check("mc-spsc-wraparound-fifo", &cfg(), || {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let t = thread::spawn(move || {
            for i in 0..4 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i), "FIFO violated at item {i}");
        }
        t.join().unwrap();
        assert_eq!(rx.recv(), Err(TryRecvError::Disconnected));
    });
    report.assert_pass("mc-spsc-wraparound-fifo");
    assert!(report.complete, "wraparound space must be fully explored");
}

/// SPSC drain-then-disconnect: a producer that sends its last items and
/// drops immediately must never lose them, under any interleaving of the
/// publish, the close flag, and the consumer's park/re-check path.
#[test]
fn mc_spsc_no_loss_on_disconnect() {
    let _g = serial();
    let report = check("mc-spsc-no-loss-on-disconnect", &cfg(), || {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let t = thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            // tx drops here, racing the consumer's drain.
        });
        let mut got = Vec::new();
        loop {
            match rx.recv() {
                Ok(v) => got.push(v),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => unreachable!("recv never returns Empty"),
            }
        }
        t.join().unwrap();
        assert_eq!(got, vec![1, 2], "items lost or reordered across disconnect");
    });
    report.assert_pass("mc-spsc-no-loss-on-disconnect");
    assert!(report.complete, "disconnect space must be fully explored");
}

/// Doorbell: a consumer that decides to park and a producer that
/// publishes-then-rings must never miss each other. A lost wakeup shows
/// up as a deadlock (consumer parked, producer finished).
#[test]
fn mc_doorbell_no_lost_wakeup() {
    let _g = serial();
    let report = check("mc-doorbell-no-lost-wakeup", &cfg(), || {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let t = thread::spawn(move || {
            tx.send(7).unwrap();
        });
        assert_eq!(rx.recv(), Ok(7));
        t.join().unwrap();
    });
    report.assert_pass("mc-doorbell-no-lost-wakeup");
    assert!(
        report.complete,
        "doorbell space must be fully explored for the no-lost-wakeup claim"
    );
}

/// MPSC with two racing producers: every item arrives exactly once and
/// per-producer FIFO order holds (the coordinator relies on it to keep a
/// master's spawns ordered before its stall report).
#[test]
fn mc_mpsc_no_loss_no_dup() {
    let _g = serial();
    // Three threads and the CAS claim loop make the full bound-2 space
    // larger than the schedule budget; one preemption still interleaves
    // the producers' claim/publish/doorbell steps and completes.
    let cfg = Config {
        preemption_bound: 1,
        ..cfg()
    };
    let report = check("mc-mpsc-no-loss-no-dup", &cfg, || {
        let (tx_a, mut rx) = mpsc::<(usize, u32)>(2);
        let tx_b = tx_a.clone();
        let a = thread::spawn(move || {
            tx_a.send((0, 0)).unwrap();
            tx_a.send((0, 1)).unwrap();
        });
        let b = thread::spawn(move || {
            tx_b.send((1, 0)).unwrap();
        });
        let mut got = Vec::new();
        loop {
            match rx.recv() {
                Ok(v) => got.push(v),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => unreachable!("recv never returns Empty"),
            }
        }
        a.join().unwrap();
        b.join().unwrap();
        let a_items: Vec<u32> = got
            .iter()
            .filter(|(p, _)| *p == 0)
            .map(|&(_, i)| i)
            .collect();
        let b_items: Vec<u32> = got
            .iter()
            .filter(|(p, _)| *p == 1)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(a_items, vec![0, 1], "producer A lost/duplicated/reordered");
        assert_eq!(b_items, vec![0], "producer B lost/duplicated");
        assert_eq!(got.len(), 3, "global count wrong");
    });
    report.assert_pass("mc-mpsc-no-loss-no-dup");
    assert!(report.complete, "mpsc bound-1 space must be fully explored");
}

/// Arena recycling over the transport: pooled `Delta` buffers ride the
/// ring to a worker (paired with a `Tracked` sentinel) and are recycled
/// into its pool. The leak accountant proves every buffer is handed out
/// and retired exactly once — no leak, no double-recycle — under every
/// explored schedule, including the drop-with-items-in-flight tail.
#[test]
fn mc_arena_no_double_recycle() {
    let _g = serial();
    let report = check("mc-arena-no-double-recycle", &cfg(), || {
        let mut coord = DeltaArena::with_limit(4);
        let (mut tx, mut rx) = spsc::<(mssp_machine::Delta, Tracked)>(2);
        let worker = thread::spawn(move || {
            let mut pool = DeltaArena::with_limit(4);
            let mut seen = 0u32;
            loop {
                match rx.recv() {
                    Ok((d, t)) => {
                        pool.put(d);
                        drop(t); // exactly-once retirement, checked globally
                        seen += 1;
                    }
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => unreachable!("recv never returns Empty"),
                }
            }
            (pool.pooled(), seen)
        });
        for i in 0..2u64 {
            let mut d = coord.take();
            d.set(Cell::Mem(i), i);
            tx.send((d, Tracked::new("pooled-delta"))).unwrap();
        }
        drop(tx);
        let (pooled, seen) = worker.join().unwrap();
        assert_eq!(seen, 2, "a delta was lost in transit");
        assert_eq!(pooled, 2, "worker pool must hold both recycled buffers");
    });
    report.assert_pass("mc-arena-no-double-recycle");
    assert!(report.complete, "arena space must be fully explored");
}

/// Satellite: the Condvar channel's drain-before-disconnect order. A
/// sender that enqueues its final message and drops in the same instant
/// must never lose it, under every mutex/condvar interleaving.
#[test]
fn mc_chan_drain_before_disconnect() {
    let _g = serial();
    let report = check("mc-chan-drain-before-disconnect", &cfg(), || {
        let (tx, rx) = chan::channel();
        let t = thread::spawn(move || {
            tx.send(42u32).unwrap();
            // tx drops here: "message ready" and "disconnected" become
            // true at the same instant for the woken receiver.
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        t.join().unwrap();
        assert_eq!(got, vec![42], "final message lost across disconnect");
    });
    report.assert_pass("mc-chan-drain-before-disconnect");
    assert!(report.complete, "chan space must be fully explored");
}

// ---------------------------------------------------------------------------
// Mutation (teeth) tests
// ---------------------------------------------------------------------------

/// Assert the failure's trace round-trips through its printed form and
/// replays to the same failure kind — the counterexample is a schedule,
/// not a fluke.
fn assert_replays(
    name: &str,
    failure: &mssp_check::Failure,
    harness: impl Fn() + Send + Sync + Clone + 'static,
) {
    let printed = failure.trace.to_string();
    let parsed =
        Trace::parse(&printed).unwrap_or_else(|| panic!("{name}: trace {printed:?} must parse"));
    assert_eq!(parsed, failure.trace, "{name}: trace print/parse mismatch");
    let replayed = replay(&cfg(), &parsed, harness)
        .unwrap_or_else(|| panic!("{name}: replay must reproduce the failure"));
    assert_eq!(
        replayed.kind, failure.kind,
        "{name}: replay found a different failure"
    );
}

/// Weakening the doorbell's SeqCst fences to AcqRel loses the wakeup:
/// the consumer's re-check misses the publish while the producer's ring
/// misses the sleep flag — a deadlock, found via two stale reads.
#[test]
fn mutation_doorbell_fence_acqrel_is_deadlock() {
    let _g = serial();
    mutation::DOORBELL_FENCE_ACQREL.store(true, std::sync::atomic::Ordering::Relaxed);
    let harness = || {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let t = thread::spawn(move || {
            tx.send(7).unwrap();
        });
        assert_eq!(rx.recv(), Ok(7));
        t.join().unwrap();
    };
    let failure =
        check("mutation-doorbell-fence", &cfg(), harness).expect_failure("mutation-doorbell-fence");
    assert_eq!(
        failure.kind,
        FailureKind::Deadlock,
        "expected a lost wakeup"
    );
    assert_replays("mutation-doorbell-fence", &failure, harness);
}

/// Demoting the consumer's Acquire load of the published `head` to
/// Relaxed severs the happens-before edge to the slot write: the payload
/// read races with the producer's write.
#[test]
fn mutation_relaxed_publish_load_is_a_race() {
    let _g = serial();
    mutation::RELAXED_PUBLISH_LOAD.store(true, std::sync::atomic::Ordering::Relaxed);
    let harness = || {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let t = thread::spawn(move || {
            tx.send(7).unwrap();
        });
        loop {
            match rx.try_recv() {
                Ok(v) => {
                    assert_eq!(v, 7);
                    break;
                }
                Err(TryRecvError::Empty) => thread::yield_now(),
                Err(TryRecvError::Disconnected) => panic!("producer vanished"),
            }
        }
        t.join().unwrap();
    };
    let failure = check("mutation-relaxed-publish", &cfg(), harness)
        .expect_failure("mutation-relaxed-publish");
    assert_eq!(
        failure.kind,
        FailureKind::DataRace,
        "expected a payload race"
    );
    assert_replays("mutation-relaxed-publish", &failure, harness);
}

/// Publishing the advanced tail *before* reading the slot frees it for
/// the producer while the payload is still being taken: on a full ring
/// the producer's next write races the consumer's in-progress read.
#[test]
fn mutation_early_tail_publish_is_a_race() {
    let _g = serial();
    mutation::EARLY_TAIL_PUBLISH.store(true, std::sync::atomic::Ordering::Relaxed);
    let harness = || {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let t = thread::spawn(move || {
            // Three items through a capacity-2 ring: the third send reuses
            // the slot the consumer's first (mutated) take is reading.
            for i in 0..3 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..3 {
            assert_eq!(rx.recv(), Ok(i));
        }
        t.join().unwrap();
    };
    let failure =
        check("mutation-early-tail", &cfg(), harness).expect_failure("mutation-early-tail");
    assert_eq!(
        failure.kind,
        FailureKind::DataRace,
        "expected a slot reuse race"
    );
    assert_replays("mutation-early-tail", &failure, harness);
}

/// Testing disconnection before draining in `chan::recv` resurrects the
/// lost-final-message bug: the sender's last message and its drop arrive
/// as one wakeup, and the mutated order returns `RecvError` first.
#[test]
fn mutation_chan_disconnect_before_drain_loses_message() {
    let _g = serial();
    mutation::CHAN_DISCONNECT_BEFORE_DRAIN.store(true, std::sync::atomic::Ordering::Relaxed);
    let harness = || {
        let (tx, rx) = chan::channel();
        let t = thread::spawn(move || {
            tx.send(42u32).unwrap();
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        t.join().unwrap();
        assert_eq!(got, vec![42], "final message lost across disconnect");
    };
    let failure = check("mutation-chan-disconnect", &cfg(), harness)
        .expect_failure("mutation-chan-disconnect");
    assert_eq!(
        failure.kind,
        FailureKind::Panic,
        "expected the lost-message assert"
    );
    assert_replays("mutation-chan-disconnect", &failure, harness);
}

/// The unmutated configurations of the same four harnesses pass (checked
/// above); this meta-test pins that arming + resetting flags leaves no
/// residue for later tests in this binary.
#[test]
fn mutation_reset_leaves_clean_state() {
    let _g = serial();
    mutation::DOORBELL_FENCE_ACQREL.store(true, std::sync::atomic::Ordering::Relaxed);
    mutation::reset_all();
    let report = check("mutation-reset-clean", &cfg(), || {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let t = thread::spawn(move || tx.send(1).unwrap());
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap();
    });
    report.assert_pass("mutation-reset-clean");
}

/// `DecisionKind`/`VecDeque` imports are exercised here to keep the test
/// self-contained if harnesses above are pruned during triage.
#[test]
fn mc_try_send_batch_under_model() {
    let _g = serial();
    let report = check("mc-try-send-batch", &cfg(), || {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let t = thread::spawn(move || {
            let mut q: VecDeque<u32> = (0..3).collect();
            while !q.is_empty() {
                match tx.try_send_batch(&mut q) {
                    Ok(_) => thread::yield_now(),
                    Err(_) => panic!("receiver vanished"),
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < 3 {
            match rx.recv() {
                Ok(v) => got.push(v),
                Err(_) => break,
            }
        }
        t.join().unwrap();
        assert_eq!(got, vec![0, 1, 2], "partial batches lost or reordered");
    });
    report.assert_pass("mc-try-send-batch");
    assert!(report.complete, "batch space must be fully explored");
}
