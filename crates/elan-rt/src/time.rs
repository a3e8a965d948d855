//! Deterministic time layer for the live runtime.
//!
//! This is the **only** module in `elan-rt` allowed to touch
//! [`std::time::Instant`] or [`std::thread::sleep`] (enforced by the
//! `disallowed-methods` list in the crate's `clippy.toml`). Everything else
//! reads time through a [`TimeSource`], which comes in two flavours:
//!
//! - [`TimeSource::real()`] — wall-clock time relative to a per-runtime
//!   epoch. `sleep` is `std::thread::sleep`; parked waits are real waits.
//!   This is the default and is what production deployments use.
//! - [`TimeSource::virtual_seeded`] — a `VirtualClock`: logical
//!   nanoseconds that advance **only** when every registered runtime thread
//!   is quiescent (parked or blocked on a deadline). Combined with the
//!   serial run-token scheduler below this makes the whole control plane
//!   deterministic: the same seed produces the same thread interleaving,
//!   the same message order, and therefore a byte-identical
//!   [`EventJournal`](crate::obs::EventJournal).
//!
//! # The run token
//!
//! Determinism needs more than virtual timestamps: if two runtime threads
//! genuinely run in parallel they still race on journal sequence numbers,
//! bus delivery order and message-id allocation (which feeds the chaos
//! fate hash). The virtual clock therefore enforces *cooperative
//! serialization*: at most one **registered** thread executes at a time,
//! holding an implicit run token. A thread releases the token when it
//!
//! - parks (`TimeSource::park_until` /
//!   [`TimeSource::sleep`]), or
//! - joins a child that is still registered (`JoinHandle::join`), or
//! - deregisters on exit.
//!
//! # Thread lifecycle
//!
//! Every runtime thread starts through `TimeSource::spawn`. The spawner
//! reserves the child's id, so ids follow spawn order, not OS start-up
//! order. The child waits for the token before its first instruction and
//! deregisters only after its closure and captures are dropped. A join
//! parks the caller until the child deregisters; the child, holding the
//! token as it leaves, makes the joiner runnable, so the joiner resumes
//! at the child's exit instant on every run of a seed. Only then does it
//! wait for the OS thread. No registered thread ever waits on the OS
//! outside the scheduler, so no wall-clock moment enters a schedule.
//!
//! When no registered thread is runnable, the coordinator auto-advances
//! virtual time to the earliest pending deadline and wakes every thread
//! whose deadline has arrived. When several threads are runnable the next
//! one is picked by a seeded PRNG — different seeds explore different (but
//! individually reproducible) schedules, which is what the `seedsweep`
//! fuzzer sweeps over.
//!
//! Lost-wakeup freedom: because no other registered thread can run between
//! a consumer's failed `try_recv` and its park, any producer's
//! `TimeSource::wake_all` necessarily happens either before the check
//! (consumer sees the message) or after the park (consumer is woken).

#![expect(
    clippy::disallowed_methods,
    reason = "the real-time backend of TimeSource reads the OS clock and sleeps"
)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use elan_sim::rng::splitmix64;
use elan_sim::{SimDuration, SimTime};
use parking_lot::{Condvar, Mutex};

/// Convert a std [`Duration`] onto the simulated-time axis.
pub fn std_to_sim(d: Duration) -> SimDuration {
    SimDuration::from_nanos(d.as_nanos().min(u128::from(u64::MAX)) as u64)
}

/// Convert a [`SimDuration`] back into a std [`Duration`].
pub(crate) fn sim_to_std(d: SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

thread_local! {
    /// Virtual-thread id of the current OS thread, if registered.
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A clock for the runtime: real wall time or a deterministic virtual time.
///
/// Cheap to clone; all clones share the same underlying clock.
#[derive(Clone)]
pub struct TimeSource(Src);

#[derive(Clone)]
enum Src {
    Real(Arc<RealTime>),
    Virtual(Arc<VirtualClock>),
}

impl fmt::Debug for TimeSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Src::Real(_) => f.write_str("TimeSource::Real"),
            Src::Virtual(v) => write!(f, "TimeSource::Virtual(seed={})", v.seed),
        }
    }
}

impl Default for TimeSource {
    fn default() -> Self {
        TimeSource::real()
    }
}

impl TimeSource {
    /// Wall-clock time, measured from the moment this source is created.
    pub fn real() -> Self {
        TimeSource(Src::Real(Arc::new(RealTime {
            epoch: Instant::now(),
        })))
    }

    /// Deterministic virtual time with a seeded scheduler.
    pub fn virtual_seeded(seed: u64) -> Self {
        TimeSource(Src::Virtual(Arc::new(VirtualClock::new(seed))))
    }

    /// True when this source is a [`VirtualClock`].
    pub(crate) fn is_virtual(&self) -> bool {
        matches!(self.0, Src::Virtual(_))
    }

    /// Current reading on the simulated-time axis (nanoseconds since the
    /// runtime epoch).
    pub fn now(&self) -> SimTime {
        match &self.0 {
            Src::Real(r) => {
                SimTime::from_nanos(r.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            }
            Src::Virtual(v) => SimTime::from_nanos(v.inner.lock().now),
        }
    }

    /// The deadline `d` from now, on the simulated axis.
    pub(crate) fn deadline_after(&self, d: Duration) -> SimTime {
        self.now() + std_to_sim(d)
    }

    /// Sleep for `d`. Real: `thread::sleep`. Virtual: park the calling
    /// (registered) thread until `now + d`; virtual time advances to the
    /// deadline once every other registered thread is quiescent.
    pub fn sleep(&self, d: Duration) {
        match &self.0 {
            Src::Real(_) => std::thread::sleep(d),
            Src::Virtual(v) => {
                let deadline = v
                    .inner
                    .lock()
                    .now
                    .saturating_add(d.as_nanos().min(u128::from(u64::MAX)) as u64);
                v.park(Some(deadline));
            }
        }
    }

    /// Park until `deadline` (no-op if already reached on the real clock;
    /// on the virtual clock an expired deadline still yields the run token
    /// once so peers get a turn).
    pub(crate) fn park_until(&self, deadline: SimTime) {
        match &self.0 {
            Src::Real(r) => {
                let now = r.epoch.elapsed();
                let target = Duration::from_nanos(deadline.as_nanos());
                if let Some(remaining) = target.checked_sub(now) {
                    if !remaining.is_zero() {
                        std::thread::sleep(remaining);
                    }
                }
            }
            Src::Virtual(v) => v.park(Some(deadline.as_nanos())),
        }
    }

    /// Mark every parked registered thread runnable. Producers call this
    /// after publishing state a parked consumer may be waiting on (bus
    /// delivery, allreduce round completion). Woken threads re-check their
    /// predicate and re-park if it still does not hold — spurious wakes are
    /// harmless under serialization. No-op on the real clock (real waits
    /// use channels/condvars directly).
    pub(crate) fn wake_all(&self) {
        if let Src::Virtual(v) = &self.0 {
            v.wake_all();
        }
    }

    /// Start a named OS thread running `f` on this clock.
    ///
    /// On a virtual clock the child's scheduler slot is reserved here, on
    /// the spawning thread, so slot ids follow spawn order rather than OS
    /// start-up order. The child waits for the run token before running
    /// `f`, and leaves the scheduler only after `f` and everything it
    /// captured are dropped, so those drops run under the token too. A
    /// panicking child still leaves, so it cannot wedge the clock. On the
    /// real clock this is a plain `thread::Builder::spawn`.
    #[expect(
        clippy::expect_used,
        reason = "std::thread::Builder::spawn only errors when the OS refuses a thread; every runtime thread (workers, AM incarnations, the watchdog) starts here, and a job missing one of them would deadlock the collective or lose failover, so abort instead of running degraded."
    )]
    pub(crate) fn spawn<T, F>(&self, name: String, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = match &self.0 {
            Src::Real(_) => None,
            Src::Virtual(v) => Some((Arc::clone(v), v.create_thread())),
        };
        let child = slot.clone();
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let _slot = child.map(|(v, id)| SlotGuard::adopt(v, id));
                f()
            })
            .expect("the OS refused to start a runtime thread");
        JoinHandle { thread, slot }
    }

    /// Register the *calling* thread (used for the controller thread that
    /// owns the runtime handle). Pair with [`TimeSource::deregister`] at
    /// shutdown. No-op on the real clock.
    pub(crate) fn register_current(&self) {
        if let Src::Virtual(v) = &self.0 {
            let id = v.create_thread();
            v.adopt(id);
        }
    }

    /// Remove the calling thread from the scheduler. Idempotent; no-op on
    /// the real clock or for unregistered threads.
    pub fn deregister(&self) {
        if let Src::Virtual(v) = &self.0 {
            v.deregister();
        }
    }
}

/// A thread started by [`TimeSource::spawn`].
pub(crate) struct JoinHandle<T> {
    thread: std::thread::JoinHandle<T>,
    /// The child's clock and scheduler id, on a virtual clock.
    slot: Option<(Arc<VirtualClock>, u64)>,
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and return its result, re-raising a
    /// panic of the child as a panic of the caller.
    ///
    /// On a virtual clock a registered caller parks in the scheduler
    /// until the child leaves it; the child, holding the run token as it
    /// leaves, makes the caller runnable, so the caller resumes at the
    /// child's exit instant on every run of a seed. Only then does the
    /// caller wait for the OS thread, which by that point runs no
    /// scheduled code. On the real clock this is a plain `join`.
    #[expect(
        clippy::expect_used,
        reason = "an Err from the OS join means the runtime thread panicked; the runtime joins only threads it stopped or crashed on command, and a commanded crash returns rather than panics, so a panic there is a bug, and re-raising it in the joiner is the correct teardown behavior."
    )]
    pub(crate) fn join(self) -> T {
        if let Some((v, id)) = &self.slot {
            v.await_exit(*id);
        }
        self.thread.join().expect("a runtime thread panicked")
    }
}

/// Scheduler membership of a [`TimeSource::spawn`]ed thread: binds the
/// thread to its reserved slot on creation and deregisters it on drop,
/// including on panic.
struct SlotGuard(Arc<VirtualClock>);

impl SlotGuard {
    fn adopt(clock: Arc<VirtualClock>, id: u64) -> SlotGuard {
        clock.adopt(id);
        SlotGuard(clock)
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.deregister();
    }
}

/// Wall-clock source: the only place `Instant::now()` / `thread::sleep`
/// are legal in `elan-rt`.
struct RealTime {
    epoch: Instant,
}

/// Seeded deterministic clock + cooperative serial scheduler.
///
/// See the [module docs](self) for the protocol. All state lives behind a
/// single mutex with one condvar; registered threads block on the condvar
/// until the scheduler hands them the run token.
pub(crate) struct VirtualClock {
    inner: Mutex<ClockInner>,
    cvar: Condvar,
    seed: u64,
}

struct ClockInner {
    /// Logical nanoseconds since the runtime epoch.
    now: u64,
    /// Next thread id to hand out.
    next_id: u64,
    /// Registered threads and their scheduler states. `BTreeMap` so
    /// candidate ordering is deterministic.
    threads: BTreeMap<u64, ThreadState>,
    /// Thread currently holding the run token.
    running: Option<u64>,
    /// PRNG state for schedule picks.
    rng: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// Ready to run; waiting for the token.
    Runnable,
    /// Waiting for a wake-up, optionally with a virtual deadline.
    Parked { deadline: Option<u64> },
    /// Waiting for thread `child` to leave the scheduler.
    Joining { child: u64 },
}

impl VirtualClock {
    fn new(seed: u64) -> Self {
        VirtualClock {
            inner: Mutex::new(ClockInner {
                now: 0,
                next_id: 0,
                threads: BTreeMap::new(),
                running: None,
                rng: splitmix64(seed),
            }),
            cvar: Condvar::new(),
            seed,
        }
    }

    /// Reserve the next thread id, runnable from the start.
    fn create_thread(&self) -> u64 {
        let mut st = self.inner.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.threads.insert(id, ThreadState::Runnable);
        id
    }

    /// Bind the calling OS thread to the reserved id `my` and wait for
    /// the run token.
    fn adopt(&self, my: u64) {
        CURRENT.set(Some(my));
        self.await_token(my, |_| {});
    }

    /// Leave the scheduler, making every thread joining this one
    /// runnable.
    fn deregister(&self) {
        let Some(my) = CURRENT.take() else { return };
        let mut st = self.inner.lock();
        st.threads.remove(&my);
        for s in st.threads.values_mut() {
            if *s == (ThreadState::Joining { child: my }) {
                *s = ThreadState::Runnable;
            }
        }
        if st.running == Some(my) {
            st.running = None;
            self.schedule_locked(&mut st);
        }
        self.cvar.notify_all();
    }

    /// Release the token and wait to be rescheduled (by wake, or by the
    /// deadline arriving once everyone else is quiescent).
    #[expect(
        clippy::panic,
        reason = "a thread parking on the virtual clock without having registered would hang the serial scheduler forever; the panic converts a silent seeded-run hang into an immediate diagnosable failure with the offending call site."
    )]
    fn park(&self, deadline: Option<u64>) {
        let Some(my) = CURRENT.get() else {
            // Unregistered thread on a virtual clock: nothing to serialize
            // against deterministically — this is a harness bug.
            panic!("virtual clock: park() on a thread that never registered");
        };
        self.await_token(my, |st| {
            debug_assert_eq!(
                st.running,
                Some(my),
                "parking thread must hold the run token"
            );
            self.release_locked(st, my, ThreadState::Parked { deadline });
        });
    }

    fn wake_all(&self) {
        let mut st = self.inner.lock();
        let parked: Vec<u64> = st
            .threads
            .iter()
            .filter(|(_, s)| matches!(s, ThreadState::Parked { .. }))
            .map(|(id, _)| *id)
            .collect();
        for id in parked {
            st.threads.insert(id, ThreadState::Runnable);
        }
        if st.running.is_none() {
            self.schedule_locked(&mut st);
        }
        self.cvar.notify_all();
    }

    /// Park the calling thread until thread `child` has deregistered. An
    /// unregistered caller returns at once: it is not scheduled, so its
    /// OS join cannot hold anyone up.
    fn await_exit(&self, child: u64) {
        let Some(my) = CURRENT.get() else { return };
        self.await_token(my, |st| {
            if st.threads.contains_key(&child) {
                self.release_locked(st, my, ThreadState::Joining { child });
            }
        });
    }

    /// Put thread `my`, which holds the run token, into `state` and hand
    /// the token on.
    fn release_locked(&self, st: &mut ClockInner, my: u64, state: ThreadState) {
        st.threads.insert(my, state);
        st.running = None;
        self.schedule_locked(st);
        self.cvar.notify_all();
    }

    /// Lock the clock, apply `update`, then wait on the condvar until
    /// thread `my` holds the run token, running the scheduler whenever the
    /// token is free. The lock is held from `update` to the first wait.
    fn await_token(&self, my: u64, update: impl FnOnce(&mut ClockInner)) {
        let mut st = self.inner.lock();
        update(&mut st);
        while st.running != Some(my) {
            if st.running.is_none() {
                self.schedule_locked(&mut st);
            } else {
                self.cvar.wait(&mut st);
            }
        }
    }

    /// Pick the next thread to run. Requires `running == None`.
    ///
    /// 1. If any thread is `Runnable`, pick one with the seeded PRNG.
    /// 2. Otherwise advance `now` to the earliest parked deadline and wake
    ///    every thread whose deadline has arrived, then pick.
    /// 3. Otherwise every registered thread is parked without a deadline
    ///    or joining one that is: the virtual world can never progress
    ///    again. Panic with a dump.
    #[expect(
        clippy::panic,
        reason = "virtual deadlock: every registered thread is parked with no pending deadline, so virtual time can never advance again. Panicking with a thread-state dump is the only way a seeded run can report the bug; any fallback would silently unfreeze a schedule the seed is supposed to pin."
    )]
    fn schedule_locked(&self, st: &mut ClockInner) {
        if st.running.is_some() {
            return;
        }
        loop {
            let runnable: Vec<u64> = st
                .threads
                .iter()
                .filter(|(_, s)| **s == ThreadState::Runnable)
                .map(|(id, _)| *id)
                .collect();
            if !runnable.is_empty() {
                st.rng = splitmix64(st.rng);
                let pick = runnable[(st.rng >> 33) as usize % runnable.len()];
                st.running = Some(pick);
                self.cvar.notify_all();
                return;
            }
            let next_deadline = st
                .threads
                .values()
                .filter_map(|s| match s {
                    ThreadState::Parked { deadline: Some(d) } => Some(*d),
                    _ => None,
                })
                .min();
            if let Some(d) = next_deadline {
                st.now = st.now.max(d);
                let due: Vec<u64> = st
                    .threads
                    .iter()
                    .filter(|(_, s)| {
                        matches!(s, ThreadState::Parked { deadline: Some(dl) } if *dl <= st.now)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                for id in due {
                    st.threads.insert(id, ThreadState::Runnable);
                }
                continue;
            }
            if st.threads.is_empty() {
                return;
            }
            panic!(
                "virtual deadlock at t={}ns: every registered thread is parked \
                 without a deadline or joining one that is: {:?}",
                st.now, st.threads
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc as StdArc;

    /// Parks a registered thread on the virtual clock with no deadline,
    /// until [`TimeSource::wake_all`].
    fn park(t: &TimeSource) {
        match &t.0 {
            Src::Virtual(v) => v.park(None),
            Src::Real(_) => unreachable!("virtual-clock test"),
        }
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    #[test]
    fn real_time_is_monotonic_from_epoch() {
        let t = TimeSource::real();
        let a = t.now();
        let b = t.now();
        assert!(b >= a);
    }

    #[test]
    fn real_clock_spawn_and_join_are_plain_threads() {
        let t = TimeSource::real();
        assert_eq!(t.spawn("plain".into(), || 5u8).join(), 5);
    }

    #[test]
    fn virtual_sleep_advances_exactly() {
        let t = TimeSource::virtual_seeded(7);
        t.register_current();
        assert_eq!(t.now(), SimTime::ZERO);
        t.sleep(Duration::from_millis(5));
        assert_eq!(t.now(), ms(5));
        t.sleep(Duration::from_micros(1));
        assert_eq!(t.now(), SimTime::from_nanos(5_001_000));
        t.deregister();
    }

    #[test]
    fn park_until_advances_to_deadline() {
        let t = TimeSource::virtual_seeded(0);
        t.register_current();
        let dl = t.now() + SimDuration::from_millis(3);
        t.park_until(dl);
        assert_eq!(t.now(), dl);
        // Expired deadline: returns without advancing.
        t.park_until(SimTime::from_nanos(1));
        assert_eq!(t.now(), dl);
        t.deregister();
    }

    /// Three children log and sleep in steps of different lengths while
    /// the parent joins them one by one, logging each join with its
    /// virtual instant. The joins land between the survivors' sleeps, so
    /// the log is a pure function of the seed only if a joiner resumes at
    /// a scheduled moment.
    fn interleaving(seed: u64) -> Vec<u64> {
        let t = TimeSource::virtual_seeded(seed);
        let log = StdArc::new(Mutex::new(Vec::new()));
        t.register_current();
        let children: Vec<JoinHandle<()>> = (0..3u64)
            .map(|id| {
                let (t2, log2) = (t.clone(), StdArc::clone(&log));
                t.spawn(format!("child-{id}"), move || {
                    for step in 0..8u64 {
                        log2.lock().push(id * 100 + step);
                        t2.sleep(Duration::from_millis(1 + id));
                    }
                })
            })
            .collect();
        for (k, child) in (0u64..).zip(children) {
            child.join();
            log.lock().extend([900 + k, t.now().as_nanos()]);
        }
        t.deregister();
        let out = log.lock().clone();
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        for seed in [42, 7] {
            let first = interleaving(seed);
            for run in 1..20 {
                assert_eq!(interleaving(seed), first, "seed {seed}, run {run}");
            }
        }
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        // Not guaranteed for every pair, but these seeds do differ; if this
        // ever fails, pick another pair — the property that matters is
        // same-seed stability, checked above.
        let a: Vec<Vec<u64>> = (0..8).map(interleaving).collect();
        assert!(
            a.iter().any(|s| s != &a[0]),
            "all 8 seeds gave one schedule"
        );
    }

    #[test]
    fn wake_all_unparks_waiters() {
        let t = TimeSource::virtual_seeded(3);
        t.register_current();
        let flag = StdArc::new(AtomicU64::new(0));
        let (t2, flag2) = (t.clone(), StdArc::clone(&flag));
        let child = t.spawn("waiter".into(), move || {
            while flag2.load(Ordering::SeqCst) == 0 {
                park(&t2);
            }
            flag2.store(2, Ordering::SeqCst);
        });
        // Let the child reach its park.
        t.sleep(Duration::from_millis(1));
        flag.store(1, Ordering::SeqCst);
        t.wake_all();
        child.join();
        assert_eq!(flag.load(Ordering::SeqCst), 2);
        t.deregister();
    }

    #[test]
    fn join_releases_the_token_for_children() {
        let t = TimeSource::virtual_seeded(1);
        t.register_current();
        let t2 = t.clone();
        let child = t.spawn("sleeper".into(), move || {
            t2.sleep(Duration::from_millis(10));
            99u32
        });
        // The joiner parks in the scheduler, so the child gets the token.
        assert_eq!(child.join(), 99);
        assert_eq!(t.now(), ms(10));
        t.deregister();
    }

    #[test]
    fn join_resumes_at_the_child_exit_instant() {
        let t = TimeSource::virtual_seeded(11);
        t.register_current();
        let (ta, tb) = (t.clone(), t.clone());
        let short = t.spawn("short".into(), move || ta.sleep(Duration::from_millis(3)));
        let long = t.spawn("long".into(), move || tb.sleep(Duration::from_millis(10)));
        short.join();
        // Time must not run on to the long child's deadline before the
        // joiner is back on the token.
        assert_eq!(t.now(), ms(3));
        long.join();
        assert_eq!(t.now(), ms(10));
        t.deregister();
    }

    #[test]
    #[should_panic(expected = "virtual deadlock")]
    fn all_parked_without_deadline_is_a_deadlock() {
        let t = TimeSource::virtual_seeded(5);
        t.register_current();
        park(&t); // nobody will ever wake us
    }

    #[test]
    #[should_panic(expected = "virtual deadlock")]
    fn joining_a_child_parked_forever_is_a_deadlock() {
        let t = TimeSource::virtual_seeded(6);
        t.register_current();
        let t2 = t.clone();
        let child = t.spawn("stuck".into(), move || park(&t2));
        // Let the child reach its park, so the join is the last move.
        t.sleep(Duration::from_millis(1));
        child.join();
    }

    #[test]
    fn slot_guard_deregisters_on_panic() {
        let t = TimeSource::virtual_seeded(9);
        t.register_current();
        let child: JoinHandle<()> = t.spawn("doomed".into(), || panic!("child dies"));
        // If the guard failed to deregister, this join would wedge the
        // clock: the parent would wait on a dead child that still owned a
        // scheduler entry with no deadline.
        let joined = catch_unwind(AssertUnwindSafe(|| child.join()));
        assert!(joined.is_err());
        t.sleep(Duration::from_millis(1)); // clock still functional
        t.deregister();
    }

    #[test]
    fn conversions_roundtrip() {
        let d = Duration::from_micros(1234);
        assert_eq!(sim_to_std(std_to_sim(d)), d);
    }
}
