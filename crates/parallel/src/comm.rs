//! In-process rank substrate: the MPI stand-in.
//!
//! A [`Universe`] owns one unbounded channel per rank; each rank runs on
//! its own OS thread with a [`RankCtx`] handle providing point-to-point
//! `send`, blocking `recv`, predicate-matching `recv_match` (the analogue
//! of tagged `MPI_Recv`, with out-of-order messages buffered) and
//! non-blocking `try_recv`/`try_recv_match`.
//!
//! This is the mailbox of the thread-per-rank and TCP executors: the
//! role machines of [`crate::roles`] poll through a
//! [`VCtx`](crate::runtime::VCtx) wrapping a [`RankCtx`], and
//! [`block_on`](crate::runtime::block_on) parks a suspended machine in
//! `recv_match` with its wait predicate.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A delivered message with its sender rank.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    pub from: usize,
    pub msg: M,
}

/// Where a send to a given destination rank is delivered: a direct
/// channel to a rank hosted in this process, or the process's shared
/// relay channel ([`crate::net`]'s router/uplink), with the destination
/// rank tagged on because relayed destinations share one channel —
/// sharing is what preserves a sender's program order across remote
/// destinations once frames hit a socket.
pub(crate) enum Outbox<M> {
    Local(Sender<Envelope<M>>),
    Relay(Sender<(usize, Envelope<M>)>),
}

// manual impl: `Sender` clones regardless of `M`, the derive would
// needlessly demand `M: Clone`
impl<M> Clone for Outbox<M> {
    fn clone(&self) -> Self {
        match self {
            Outbox::Local(tx) => Outbox::Local(tx.clone()),
            Outbox::Relay(tx) => Outbox::Relay(tx.clone()),
        }
    }
}

/// Per-rank communication handle.
pub struct RankCtx<M: Send> {
    rank: usize,
    size: usize,
    rx: Receiver<Envelope<M>>,
    txs: Vec<Outbox<M>>,
    /// Messages received but not yet matched by `recv_match`.
    buffer: VecDeque<Envelope<M>>,
    /// Universe-wide tally of sends to already-exited ranks.
    dropped_sends: Arc<AtomicUsize>,
}

impl<M: Send> RankCtx<M> {
    /// Assemble a handle from raw parts — how [`Universe::run_counted`]
    /// and the net transport build their rank endpoints.
    pub(crate) fn from_parts(
        rank: usize,
        size: usize,
        rx: Receiver<Envelope<M>>,
        txs: Vec<Outbox<M>>,
        dropped_sends: Arc<AtomicUsize>,
    ) -> Self {
        Self {
            rank,
            size,
            rx,
            txs,
            buffer: VecDeque::new(),
            dropped_sends,
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `msg` to rank `to`. Sends never block (unbounded channels);
    /// sends to already-exited ranks — and sends to out-of-range rank
    /// indices, a routine race under elastic membership rather than a
    /// programmer error — are dropped but counted (and warned about in
    /// debug builds), so message loss is observable via
    /// [`Universe::run_counted`] instead of silent.
    pub fn send(&self, to: usize, msg: M) {
        if to >= self.txs.len() {
            self.note_drop(to, "out-of-range");
            return;
        }
        let env = Envelope {
            from: self.rank,
            msg,
        };
        let lost = match &self.txs[to] {
            Outbox::Local(tx) => tx.send(env).is_err(),
            Outbox::Relay(tx) => tx.send((to, env)).is_err(),
        };
        if lost {
            self.note_drop(to, "exited");
        }
    }

    fn note_drop(&self, to: usize, why: &str) {
        let prev = self.dropped_sends.fetch_add(1, Ordering::Relaxed);
        // debug builds surface the first loss per universe (teardown
        // legitimately drops a handful; the count tells the rest)
        #[cfg(debug_assertions)]
        if prev == 0 {
            eprintln!(
                "uq-parallel comm: dropping send from rank {} to {why} rank {to} \
                 (further drops counted silently)",
                self.rank
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = (prev, to, why);
    }

    /// Sends to exited ranks observed universe-wide so far.
    pub fn dropped_sends(&self) -> usize {
        self.dropped_sends.load(Ordering::Relaxed)
    }

    /// Blocking receive of the next message (buffered first).
    pub fn recv(&mut self) -> Envelope<M> {
        if let Some(env) = self.buffer.pop_front() {
            return env;
        }
        self.rx.recv().expect("RankCtx::recv: universe torn down")
    }

    /// Blocking receive of the first message satisfying `pred`;
    /// non-matching messages are buffered in arrival order.
    pub fn recv_match(&mut self, mut pred: impl FnMut(&Envelope<M>) -> bool) -> Envelope<M> {
        if let Some(pos) = self.buffer.iter().position(&mut pred) {
            return self.buffer.remove(pos).unwrap();
        }
        loop {
            let env = self
                .rx
                .recv()
                .expect("RankCtx::recv_match: universe torn down");
            if pred(&env) {
                return env;
            }
            self.buffer.push_back(env);
        }
    }

    /// Non-blocking receive (buffered first).
    pub fn try_recv(&mut self) -> Option<Envelope<M>> {
        if let Some(env) = self.buffer.pop_front() {
            return Some(env);
        }
        self.rx.try_recv().ok()
    }

    /// Non-blocking [`recv_match`](Self::recv_match): the first queued
    /// message satisfying `pred`, if any; everything else stays buffered
    /// in arrival order.
    pub fn try_recv_match(
        &mut self,
        pred: impl FnMut(&Envelope<M>) -> bool,
    ) -> Option<Envelope<M>> {
        self.buffer.extend(self.rx.try_iter());
        let pos = self.buffer.iter().position(pred)?;
        self.buffer.remove(pos)
    }

    /// Drain everything currently queued without blocking.
    pub fn drain(&mut self) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        while let Some(env) = self.try_recv() {
            out.push(env);
        }
        out
    }

    /// Put a message back at the front of the buffer (it will be the next
    /// one returned by `recv`/`try_recv`).
    pub fn unrecv(&mut self, env: Envelope<M>) {
        self.buffer.push_front(env);
    }
}

/// Statistics of one universe execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniverseStats {
    /// Sends that targeted an already-exited rank (dropped messages).
    /// Nonzero values are expected during scheduler shutdown; anything
    /// nonzero *outside* teardown indicates a protocol bug.
    pub dropped_sends: usize,
}

/// The set of communicating ranks.
pub struct Universe;

impl Universe {
    /// Run `n_ranks` ranks, each executing `f(ctx)` on its own thread, and
    /// gather their return values by rank index.
    ///
    /// # Panics
    /// Propagates panics from rank threads.
    pub fn run<M, R, F>(n_ranks: usize, f: F) -> Vec<R>
    where
        M: Send + 'static,
        R: Send,
        F: Fn(RankCtx<M>) -> R + Send + Sync,
    {
        Self::run_counted(n_ranks, f).0
    }

    /// [`run`](Self::run), additionally reporting universe-wide
    /// statistics — in particular the count of messages dropped because
    /// their destination rank had already exited.
    ///
    /// # Panics
    /// Propagates panics from rank threads.
    pub fn run_counted<M, R, F>(n_ranks: usize, f: F) -> (Vec<R>, UniverseStats)
    where
        M: Send + 'static,
        R: Send,
        F: Fn(RankCtx<M>) -> R + Send + Sync,
    {
        assert!(n_ranks > 0, "Universe::run: need at least one rank");
        let mut txs = Vec::with_capacity(n_ranks);
        let mut rxs = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let (tx, rx) = unbounded();
            txs.push(Outbox::Local(tx));
            rxs.push(rx);
        }
        let dropped_sends = Arc::new(AtomicUsize::new(0));
        let mut results: Vec<Option<R>> = (0..n_ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_ranks);
            for (rank, rx) in rxs.into_iter().enumerate() {
                let ctx =
                    RankCtx::from_parts(rank, n_ranks, rx, txs.clone(), Arc::clone(&dropped_sends));
                let f = &f;
                handles.push(scope.spawn(move || f(ctx)));
            }
            // the senders held by `txs` are dropped only after all ranks
            // finish, so recv() during execution never observes teardown
            for (rank, handle) in handles.into_iter().enumerate() {
                results[rank] = Some(handle.join().expect("rank thread panicked"));
            }
        });
        let stats = UniverseStats {
            dropped_sends: dropped_sends.load(Ordering::Relaxed),
        };
        (results.into_iter().map(Option::unwrap).collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Ping(usize),
        Pong(usize),
        Data(Vec<f64>),
    }

    #[test]
    fn ring_pass() {
        // each rank sends its rank to the next; everyone receives prev
        let results = Universe::run(5, |mut ctx: RankCtx<TestMsg>| {
            let next = (ctx.rank() + 1) % ctx.size();
            ctx.send(next, TestMsg::Ping(ctx.rank()));
            let env = ctx.recv();
            match env.msg {
                TestMsg::Ping(r) => r,
                _ => panic!("unexpected"),
            }
        });
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn recv_match_buffers_out_of_order() {
        let results = Universe::run(2, |mut ctx: RankCtx<TestMsg>| {
            if ctx.rank() == 0 {
                // send Pong first, then Ping
                ctx.send(1, TestMsg::Pong(7));
                ctx.send(1, TestMsg::Ping(3));
                0
            } else {
                // wait for the Ping first even though Pong arrives earlier
                let ping = ctx.recv_match(|e| matches!(e.msg, TestMsg::Ping(_)));
                let pong = ctx.recv();
                match (ping.msg, pong.msg) {
                    (TestMsg::Ping(a), TestMsg::Pong(b)) => a + b,
                    _ => panic!("wrong order"),
                }
            }
        });
        assert_eq!(results[1], 10);
    }

    #[test]
    fn gather_to_root() {
        let results = Universe::run(4, |mut ctx: RankCtx<TestMsg>| {
            if ctx.rank() == 0 {
                let mut sum = 0.0;
                for _ in 0..3 {
                    if let TestMsg::Data(v) = ctx.recv().msg {
                        sum += v.iter().sum::<f64>();
                    }
                }
                sum
            } else {
                ctx.send(0, TestMsg::Data(vec![ctx.rank() as f64; 2]));
                0.0
            }
        });
        assert_eq!(results[0], 12.0);
    }

    #[test]
    fn try_recv_nonblocking() {
        let results = Universe::run(2, |mut ctx: RankCtx<TestMsg>| {
            if ctx.rank() == 0 {
                // nothing sent yet
                let empty = ctx.try_recv().is_none();
                ctx.send(1, TestMsg::Ping(0));
                empty
            } else {
                let env = ctx.recv();
                assert_eq!(env.from, 0);
                true
            }
        });
        assert!(results[0] && results[1]);
    }

    #[test]
    fn unrecv_requeues_at_front() {
        let results = Universe::run(2, |mut ctx: RankCtx<TestMsg>| {
            if ctx.rank() == 0 {
                ctx.send(1, TestMsg::Ping(1));
                ctx.send(1, TestMsg::Ping(2));
                0
            } else {
                let first = ctx.recv();
                ctx.unrecv(first);
                let again = ctx.recv();
                match again.msg {
                    TestMsg::Ping(v) => v,
                    _ => panic!(),
                }
            }
        });
        assert_eq!(results[1], 1);
    }

    /// Messages for the interleaving tests, mirroring the scheduler's
    /// control-vs-data split.
    #[derive(Clone, Debug, PartialEq)]
    enum CtlMsg {
        Data(usize),
        Sample(usize),
        Poison,
        Shutdown,
    }

    #[test]
    fn multiple_pending_predicates_preserve_arrival_order() {
        // two different predicates pull their matches out of order; the
        // skipped messages must re-deliver in the original arrival order
        let results = Universe::run(2, |mut ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 1 {
                for m in [
                    CtlMsg::Data(0),
                    CtlMsg::Sample(10),
                    CtlMsg::Data(1),
                    CtlMsg::Sample(11),
                    CtlMsg::Data(2),
                ] {
                    ctx.send(0, m);
                }
                return Vec::new();
            }
            let mut order = Vec::new();
            // predicate A: samples, twice (buffers the Data around them)
            for _ in 0..2 {
                let env = ctx.recv_match(|e| matches!(e.msg, CtlMsg::Sample(_)));
                if let CtlMsg::Sample(v) = env.msg {
                    order.push(v);
                }
            }
            // predicate B (plain recv): the buffered Data, arrival order
            for _ in 0..3 {
                if let CtlMsg::Data(v) = ctx.recv().msg {
                    order.push(v);
                }
            }
            order
        });
        assert_eq!(results[0], vec![10, 11, 0, 1, 2]);
    }

    #[test]
    fn buffered_redelivery_interleaves_with_live_arrivals() {
        // a pending predicate buffers early messages; a later recv_match
        // with a *different* predicate must still see buffered messages
        // before newer channel arrivals
        let results = Universe::run(2, |mut ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 1 {
                ctx.send(0, CtlMsg::Data(7));
                ctx.send(0, CtlMsg::Sample(1));
                // only send the late message once rank 0 confirmed the
                // first two were processed
                let _ = ctx.recv();
                ctx.send(0, CtlMsg::Data(8));
                0
            } else {
                let s = ctx.recv_match(|e| matches!(e.msg, CtlMsg::Sample(_)));
                assert_eq!(s.msg, CtlMsg::Sample(1)); // Data(7) now buffered
                ctx.send(1, CtlMsg::Data(0)); // ack
                let first = ctx.recv_match(|e| matches!(e.msg, CtlMsg::Data(_)));
                let second = ctx.recv_match(|e| matches!(e.msg, CtlMsg::Data(_)));
                assert_eq!(first.msg, CtlMsg::Data(7), "buffered must win");
                assert_eq!(second.msg, CtlMsg::Data(8));
                1
            }
        });
        assert_eq!(results[0], 1);
    }

    #[test]
    fn poison_and_shutdown_never_starved_behind_buffered_data() {
        // a teardown-matching receive must find Poison/Shutdown no matter
        // how much unconsumed data is buffered ahead of them
        let results = Universe::run(2, |mut ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 1 {
                for i in 0..50 {
                    ctx.send(0, CtlMsg::Data(i));
                }
                ctx.send(0, CtlMsg::Poison);
                for i in 50..100 {
                    ctx.send(0, CtlMsg::Data(i));
                }
                ctx.send(0, CtlMsg::Shutdown);
                0
            } else {
                // force everything into the out-of-order buffer first
                let teardown =
                    |e: &Envelope<CtlMsg>| matches!(e.msg, CtlMsg::Poison | CtlMsg::Shutdown);
                let first = ctx.recv_match(teardown);
                assert_eq!(first.msg, CtlMsg::Poison, "first teardown in order");
                let second = ctx.recv_match(teardown);
                assert_eq!(second.msg, CtlMsg::Shutdown);
                // the 100 data messages are all still there, in order
                let mut n = 0usize;
                for expect in 0..100 {
                    let CtlMsg::Data(v) = ctx.recv().msg else {
                        panic!("expected data")
                    };
                    assert_eq!(v, expect);
                    n += 1;
                }
                n
            }
        });
        assert_eq!(results[0], 100);
    }

    #[test]
    fn dropped_sends_to_exited_ranks_are_counted() {
        let (_, stats) = Universe::run_counted(2, |ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 1 {
                // exit immediately: rank 0's pings eventually hit a
                // dropped receiver
                return 0;
            }
            let mut tries = 0usize;
            while ctx.dropped_sends() == 0 {
                ctx.send(1, CtlMsg::Data(tries));
                tries += 1;
                assert!(tries < 1_000_000, "rank 1 never exited?");
                std::thread::yield_now();
            }
            ctx.dropped_sends()
        });
        assert!(stats.dropped_sends >= 1);
    }

    #[test]
    fn out_of_range_send_is_counted_not_fatal() {
        // under elastic membership a stale rank index is a routine race:
        // the send must be dropped and tallied, never panic
        let (_, stats) = Universe::run_counted(2, |ctx: RankCtx<CtlMsg>| {
            if ctx.rank() == 0 {
                ctx.send(99, CtlMsg::Data(0));
                ctx.send(7, CtlMsg::Poison);
            }
            ctx.dropped_sends()
        });
        assert_eq!(stats.dropped_sends, 2);
    }

    #[test]
    fn drain_collects_pending() {
        let results = Universe::run(3, |mut ctx: RankCtx<TestMsg>| {
            if ctx.rank() == 0 {
                // wait until both messages are in, then drain
                let a = ctx.recv();
                let b = ctx.recv();
                ctx.unrecv(b);
                ctx.unrecv(a);
                ctx.drain().len()
            } else {
                ctx.send(0, TestMsg::Ping(ctx.rank()));
                0
            }
        });
        assert_eq!(results[0], 2);
    }
}
