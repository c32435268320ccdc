//! Per-rank programs and the builder that assembles them.
//!
//! A [`Program`] is the instruction stream one rank executes: compute
//! segments, point-to-point messages, DVFS requests, phase markers, and
//! collectives. A collective is one compact [`Op::Collective`];
//! [`Program::expanded`] yields it as the point-to-point operations of
//! MPICH's algorithm (see [`crate::collectives`]), one at a time through a
//! cursor with O(1) state, so the engine's semantics stay small and fully
//! testable and a program's size does not grow with the job size.
//!
//! The builder also injects each message's *software* cost (stack
//! overhead and buffer copies) as explicit [`Op::Compute`] work. That cost
//! scales with CPU frequency — it is precisely the part of communication
//! that DVFS slows down, and what makes the paper's communication
//! microbenchmark delays rise a few percent at 600 MHz instead of zero.

use dvfs::AppSpeedRequest;
use mem_model::{MemHierarchy, WorkUnit};

use crate::collectives::{self, CollectiveKind};
use crate::config::MsgCostModel;

/// Rank index within the job (also the node index: one rank per node,
/// as in all the paper's experiments).
pub type Rank = usize;

/// Message tag. User tags must stay below [`ProgramBuilder::COLLECTIVE_TAG_BASE`].
pub type Tag = u32;

/// One program operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Local computation.
    Compute(WorkUnit),
    /// Blocking send of `bytes` to `dst`.
    Send {
        /// Destination rank.
        dst: Rank,
        /// Payload size.
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// Blocking receive from `src`.
    Recv {
        /// Source rank.
        src: Rank,
        /// Matching tag.
        tag: Tag,
    },
    /// Simultaneous send+receive (MPI_Sendrecv); completes when both do.
    SendRecv {
        /// Destination of the outgoing message.
        dst: Rank,
        /// Outgoing payload size.
        send_bytes: u64,
        /// Outgoing tag.
        send_tag: Tag,
        /// Source of the incoming message.
        src: Rank,
        /// Incoming tag.
        recv_tag: Tag,
    },
    /// Non-blocking send (MPI_Isend): posts and continues. Completion is
    /// collected by the next [`Op::WaitAll`].
    Isend {
        /// Destination rank.
        dst: Rank,
        /// Payload size.
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// Non-blocking receive (MPI_Irecv): posts and continues. Completion
    /// is collected by the next [`Op::WaitAll`].
    Irecv {
        /// Source rank.
        src: Rank,
        /// Matching tag.
        tag: Tag,
    },
    /// Block until every outstanding non-blocking operation completes
    /// (MPI_Waitall over everything posted since the last WaitAll).
    WaitAll,
    /// Application-directed DVFS request (PowerPack `set_speed`).
    SetSpeed(AppSpeedRequest),
    /// Named phase entry, for tracing and profile alignment.
    PhaseBegin(&'static str),
    /// Named phase exit.
    PhaseEnd(&'static str),
    /// One rank's part of a collective, in compact form. Never executed
    /// as such: [`Program::expanded`] yields its point-to-point
    /// operations and their software costs.
    Collective {
        /// The algorithm.
        kind: CollectiveKind,
        /// Root rank of rooted collectives (0 for the others).
        root: Rank,
        /// Payload (see [`CollectiveKind`] for what it is per).
        bytes: u64,
        /// First tag of the instance's tag namespace.
        tag: Tag,
    },
}

/// The per-message software cost model plus the cache line size that
/// prices DRAM-streamed copies.
#[derive(Debug, Clone)]
struct MsgCost {
    model: MsgCostModel,
    line_bytes: u64,
}

impl MsgCost {
    fn new(model: MsgCostModel, mem: &MemHierarchy) -> Self {
        MsgCost {
            model,
            line_bytes: mem.line_bytes,
        }
    }

    /// The frequency-scaled (plus DRAM, for large payloads) software cost
    /// of one message end.
    fn message(&self, bytes: u64) -> WorkUnit {
        self.with_copy(
            self.model.per_msg_cycles + bytes as f64 * self.model.cycles_per_byte,
            bytes,
        )
    }

    /// Copy-only cost (no per-message overhead), for aggregate receive
    /// copies after a waitall.
    fn copy(&self, bytes: u64) -> WorkUnit {
        if bytes == 0 {
            return WorkUnit::ZERO;
        }
        self.with_copy(bytes as f64 * self.model.cycles_per_byte, bytes)
    }

    fn with_copy(&self, cpu_cycles: f64, bytes: u64) -> WorkUnit {
        if bytes > self.model.dram_copy_threshold {
            // Copies stream through DRAM: one miss per line at each end.
            let lines = bytes as f64 / self.line_bytes as f64;
            WorkUnit {
                cpu_cycles,
                l2_accesses: lines,
                dram_accesses: lines,
            }
        } else {
            WorkUnit::pure_cpu(cpu_cycles)
        }
    }
}

/// One builder-level call: a wire operation with the software cost
/// charged before it (sends) and after it (receives). The builder's
/// methods and the collective expansion both go through
/// [`Step::op`], so a collective expands to exactly the ops the same
/// calls on the builder would append.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Raw compute work.
    Compute(WorkUnit),
    /// A local block copy: one message end's software cost, no wire op.
    Copy(u64),
    Send {
        dst: Rank,
        bytes: u64,
        tag: Tag,
    },
    Recv {
        src: Rank,
        bytes: u64,
        tag: Tag,
    },
    SendRecv {
        dst: Rank,
        send_bytes: u64,
        send_tag: Tag,
        src: Rank,
        recv_bytes: u64,
        recv_tag: Tag,
    },
    Isend {
        dst: Rank,
        bytes: u64,
        tag: Tag,
    },
    Irecv {
        src: Rank,
        tag: Tag,
    },
    WaitAll {
        copy_bytes: u64,
    },
}

impl Step {
    /// Ops per step at most: cost before, wire op, cost after.
    const SUBS: u8 = 3;

    /// The step's op in slot `sub` (`0..SUBS`), or `None` when the slot
    /// is empty; zero-work compute is elided.
    fn op(&self, sub: u8, cost: &MsgCost) -> Option<Op> {
        let work = match (sub, *self) {
            (0, Step::Compute(work)) => work,
            (0, Step::Copy(bytes) | Step::Send { bytes, .. } | Step::Isend { bytes, .. }) => {
                cost.message(bytes)
            }
            (0, Step::SendRecv { send_bytes, .. }) => cost.message(send_bytes),
            (1, Step::Send { dst, bytes, tag }) => return Some(Op::Send { dst, bytes, tag }),
            (1, Step::Recv { src, tag, .. }) => return Some(Op::Recv { src, tag }),
            (
                1,
                Step::SendRecv {
                    dst,
                    send_bytes,
                    send_tag,
                    src,
                    recv_tag,
                    ..
                },
            ) => {
                return Some(Op::SendRecv {
                    dst,
                    send_bytes,
                    send_tag,
                    src,
                    recv_tag,
                })
            }
            (1, Step::Isend { dst, bytes, tag }) => return Some(Op::Isend { dst, bytes, tag }),
            (1, Step::Irecv { src, tag }) => return Some(Op::Irecv { src, tag }),
            (1, Step::WaitAll { .. }) => return Some(Op::WaitAll),
            (2, Step::Recv { bytes, .. }) => cost.message(bytes),
            (2, Step::SendRecv { recv_bytes, .. }) => cost.message(recv_bytes),
            (2, Step::WaitAll { copy_bytes }) => cost.copy(copy_bytes),
            _ => return None,
        };
        (!work.is_zero()).then_some(Op::Compute(work))
    }
}

/// A rank's complete instruction stream.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Vec<Op>,
    rank: Rank,
    size: usize,
    cost: MsgCost,
}

impl Program {
    /// Build a single program directly from point-to-point operations.
    /// Low-level, for tests and hand-written streams; ordinary
    /// construction goes through [`ProgramBuilder`], and rewriting tools
    /// use [`Program::with_ops`] to keep a program's collectives.
    ///
    /// # Panics
    /// On an [`Op::Collective`]: expanding one needs the rank, job size
    /// and cost model only a builder supplies.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        assert!(
            !ops.iter().any(|op| matches!(op, Op::Collective { .. })),
            "from_ops takes point-to-point ops; build collectives with ProgramBuilder"
        );
        let b = ProgramBuilder::new(0, 1);
        Program { ops, ..b.build() }
    }

    /// A program for the same rank, job size and message cost model
    /// running `ops` instead: how rewriting tools (e.g. automatic DVS
    /// instrumentation) pass compact collectives through.
    pub fn with_ops(&self, ops: Vec<Op>) -> Self {
        Program {
            ops,
            rank: self.rank,
            size: self.size,
            cost: self.cost.clone(),
        }
    }

    /// The operations in execution order, collectives compact.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations, counting each collective once.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for a program with no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in execution order with every collective expanded
    /// into its point-to-point operations and their software costs: the
    /// stream the engine executes. Never yields [`Op::Collective`].
    pub fn expanded(&self) -> Expanded<'_> {
        Expanded {
            program: self,
            cursor: Cursor::default(),
        }
    }

    /// Total message payload bytes this rank sends: sends, isends and
    /// sendrecv sends, collectives included.
    pub fn bytes_sent(&self) -> u64 {
        self.expanded()
            .map(|op| match op {
                Op::Send { bytes, .. } | Op::Isend { bytes, .. } => bytes,
                Op::SendRecv { send_bytes, .. } => send_bytes,
                _ => 0,
            })
            .sum()
    }
}

/// A position in a program's expanded stream: the compact op, the step
/// inside a collective, and the op inside that step. Copy-sized, so a
/// peek is a copy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    pc: usize,
    step: usize,
    sub: u8,
    position: usize,
    /// The collective step being expanded, computed once when the cursor
    /// enters it; `None` between steps and outside collectives.
    current: Option<Step>,
}

impl Cursor {
    /// Expanded ops yielded so far: the index of the next one.
    pub(crate) fn position(&self) -> usize {
        self.position
    }

    /// The next expanded op of `program`, or `None` at its end.
    pub(crate) fn next(&mut self, program: &Program) -> Option<Op> {
        loop {
            if let Some(step) = self.current {
                while self.sub < Step::SUBS {
                    let sub = self.sub;
                    self.sub += 1;
                    if let Some(op) = step.op(sub, &program.cost) {
                        self.position += 1;
                        return Some(op);
                    }
                }
                self.current = None;
                self.step += 1;
                self.sub = 0;
            }
            let op = program.ops.get(self.pc)?;
            let &Op::Collective {
                kind,
                root,
                bytes,
                tag,
            } = op
            else {
                self.pc += 1;
                self.position += 1;
                return Some(op.clone());
            };
            self.current = collectives::step(
                kind,
                program.rank,
                program.size,
                root,
                bytes,
                tag,
                self.step,
            );
            if self.current.is_none() {
                self.pc += 1;
                self.step = 0;
            }
        }
    }
}

/// Iterator over [`Program::expanded`].
#[derive(Debug, Clone)]
pub struct Expanded<'a> {
    program: &'a Program,
    cursor: Cursor,
}

impl Iterator for Expanded<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.cursor.next(self.program)
    }
}

/// Builds one rank's program, charging message software costs.
#[derive(Debug)]
pub struct ProgramBuilder {
    rank: Rank,
    size: usize,
    cost: MsgCost,
    ops: Vec<Op>,
    collective_epoch: u32,
}

impl ProgramBuilder {
    /// Tags at or above this value are reserved for collectives.
    pub const COLLECTIVE_TAG_BASE: Tag = 0x8000_0000;

    /// A builder for `rank` of a `size`-rank job with default cost model
    /// and the paper's memory hierarchy.
    pub fn new(rank: Rank, size: usize) -> Self {
        ProgramBuilder::with_cost(
            rank,
            size,
            MsgCostModel::default(),
            MemHierarchy::pentium_m_1400(),
        )
    }

    /// Full-control constructor.
    pub fn with_cost(rank: Rank, size: usize, cost: MsgCostModel, mem: MemHierarchy) -> Self {
        assert!(size > 0, "job needs at least one rank");
        assert!(rank < size, "rank {rank} out of range for size {size}");
        ProgramBuilder {
            rank,
            size,
            cost: MsgCost::new(cost, &mem),
            ops: Vec::new(),
            collective_epoch: 0,
        }
    }

    /// This builder's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Job size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The frequency-scaled (plus DRAM, for large payloads) software cost
    /// of one message end.
    pub fn msg_cost(&self, bytes: u64) -> WorkUnit {
        self.cost.message(bytes)
    }

    fn push(&mut self, step: Step) -> &mut Self {
        for sub in 0..Step::SUBS {
            if let Some(op) = step.op(sub, &self.cost) {
                self.ops.push(op);
            }
        }
        self
    }

    /// Append raw compute work.
    pub fn compute(&mut self, work: WorkUnit) -> &mut Self {
        self.push(Step::Compute(work))
    }

    /// Append a blocking send (software cost + wire operation).
    pub fn send(&mut self, dst: Rank, bytes: u64, tag: Tag) -> &mut Self {
        assert!(dst < self.size, "send dst {dst} out of range");
        self.push(Step::Send { dst, bytes, tag })
    }

    /// Append a blocking receive (wire operation + software cost; the
    /// expected payload size must be supplied to price the receive copy).
    pub fn recv(&mut self, src: Rank, bytes: u64, tag: Tag) -> &mut Self {
        assert!(src < self.size, "recv src {src} out of range");
        self.push(Step::Recv { src, bytes, tag })
    }

    /// Append a simultaneous exchange.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        dst: Rank,
        send_bytes: u64,
        send_tag: Tag,
        src: Rank,
        recv_bytes: u64,
        recv_tag: Tag,
    ) -> &mut Self {
        assert!(
            dst < self.size && src < self.size,
            "sendrecv peer out of range"
        );
        self.push(Step::SendRecv {
            dst,
            send_bytes,
            send_tag,
            src,
            recv_bytes,
            recv_tag,
        })
    }

    /// Append a non-blocking send; its software cost is still charged
    /// inline (the copy happens at post time).
    pub fn isend(&mut self, dst: Rank, bytes: u64, tag: Tag) -> &mut Self {
        assert!(dst < self.size, "isend dst {dst} out of range");
        self.push(Step::Isend { dst, bytes, tag })
    }

    /// Append a non-blocking receive; the receive-side copy cost is
    /// charged at the matching [`ProgramBuilder::wait_all`].
    pub fn irecv(&mut self, src: Rank, tag: Tag) -> &mut Self {
        assert!(src < self.size, "irecv src {src} out of range");
        self.push(Step::Irecv { src, tag })
    }

    /// Wait for all outstanding non-blocking operations, charging
    /// `recv_copy_bytes` of receive-side copy cost afterwards (the sum of
    /// the posted irecvs' payloads).
    pub fn wait_all(&mut self, recv_copy_bytes: u64) -> &mut Self {
        self.push(Step::WaitAll {
            copy_bytes: recv_copy_bytes,
        })
    }

    /// Append a DVFS request.
    pub fn set_speed(&mut self, request: AppSpeedRequest) -> &mut Self {
        self.ops.push(Op::SetSpeed(request));
        self
    }

    /// Append a phase-begin marker.
    pub fn phase_begin(&mut self, name: &'static str) -> &mut Self {
        self.ops.push(Op::PhaseBegin(name));
        self
    }

    /// Append a phase-end marker.
    pub fn phase_end(&mut self, name: &'static str) -> &mut Self {
        self.ops.push(Op::PhaseEnd(name));
        self
    }

    /// Fresh tag namespace for one collective instance.
    fn next_collective_tag(&mut self) -> Tag {
        let epoch = self.collective_epoch;
        self.collective_epoch += 1;
        Self::COLLECTIVE_TAG_BASE | (epoch << 8)
    }

    /// Append one compact collective with a fresh tag namespace. A
    /// single-rank job's collectives are empty and take no tag.
    fn collective(&mut self, kind: CollectiveKind, root: Rank, bytes: u64) -> &mut Self {
        assert!(root < self.size, "{kind:?} root out of range");
        if self.size > 1 {
            let tag = self.next_collective_tag();
            self.ops.push(Op::Collective {
                kind,
                root,
                bytes,
                tag,
            });
        }
        self
    }

    /// Dissemination barrier across all ranks.
    pub fn barrier(&mut self) -> &mut Self {
        self.collective(CollectiveKind::Barrier, 0, collectives::BARRIER_BYTES)
    }

    /// Binomial-tree broadcast of `bytes` from `root`.
    pub fn bcast(&mut self, root: Rank, bytes: u64) -> &mut Self {
        self.collective(CollectiveKind::Bcast, root, bytes)
    }

    /// Binomial-tree reduction of `bytes` to `root` (combine cost charged
    /// per merge).
    pub fn reduce(&mut self, root: Rank, bytes: u64) -> &mut Self {
        self.collective(CollectiveKind::Reduce, root, bytes)
    }

    /// Reduce-then-broadcast allreduce (MPICH-1's algorithm).
    pub fn allreduce(&mut self, bytes: u64) -> &mut Self {
        self.reduce(0, bytes).bcast(0, bytes)
    }

    /// Every rank sends `bytes_per_rank` to `root`.
    pub fn gather(&mut self, root: Rank, bytes_per_rank: u64) -> &mut Self {
        self.collective(CollectiveKind::Gather, root, bytes_per_rank)
    }

    /// Binomial-tree scatter of `bytes_per_rank` shares from `root`.
    pub fn scatter(&mut self, root: Rank, bytes_per_rank: u64) -> &mut Self {
        self.collective(CollectiveKind::Scatter, root, bytes_per_rank)
    }

    /// Allgather of each rank's `bytes_per_rank` block (recursive doubling
    /// for power-of-two sizes, ring otherwise).
    pub fn allgather(&mut self, bytes_per_rank: u64) -> &mut Self {
        self.collective(CollectiveKind::Allgather, 0, bytes_per_rank)
    }

    /// Complete exchange: every rank sends `bytes_per_pair` to every other
    /// rank (pairwise-exchange for power-of-two sizes, ring otherwise).
    pub fn alltoall(&mut self, bytes_per_pair: u64) -> &mut Self {
        self.collective(CollectiveKind::Alltoall, 0, bytes_per_pair)
    }

    /// Flood-style all-to-all (how MPI_Alltoall is implemented on fully
    /// connected fabrics): post every irecv and isend at once, then wait.
    /// Contrast with [`ProgramBuilder::alltoall`]'s round-structured
    /// pairwise exchange.
    pub fn alltoall_nonblocking(&mut self, bytes_per_pair: u64) -> &mut Self {
        self.collective(CollectiveKind::AlltoallNonblocking, 0, bytes_per_pair)
    }

    /// Finish, yielding the program.
    pub fn build(self) -> Program {
        Program {
            ops: self.ops,
            rank: self.rank,
            size: self.size,
            cost: self.cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_charges_software_cost_first() {
        let mut b = ProgramBuilder::new(0, 2);
        b.send(1, 1024, 7);
        let p = b.build();
        assert_eq!(p.len(), 2);
        assert!(matches!(p.ops()[0], Op::Compute(_)));
        assert!(matches!(
            p.ops()[1],
            Op::Send {
                dst: 1,
                bytes: 1024,
                tag: 7
            }
        ));
    }

    #[test]
    fn recv_charges_software_cost_after() {
        let mut b = ProgramBuilder::new(1, 2);
        b.recv(0, 1024, 7);
        let p = b.build();
        assert!(matches!(p.ops()[0], Op::Recv { src: 0, tag: 7 }));
        assert!(matches!(p.ops()[1], Op::Compute(_)));
    }

    #[test]
    fn large_message_cost_streams_dram() {
        let b = ProgramBuilder::new(0, 2);
        let small = b.msg_cost(4 * 1024);
        let large = b.msg_cost(4 * 1024 * 1024);
        assert_eq!(small.dram_accesses, 0.0);
        assert!(large.dram_accesses > 0.0);
        assert!(large.cpu_cycles > small.cpu_cycles);
    }

    #[test]
    fn zero_work_compute_is_elided() {
        let mut b = ProgramBuilder::new(0, 1);
        b.compute(WorkUnit::ZERO);
        assert!(b.build().is_empty());
    }

    #[test]
    fn collective_tags_are_distinct_per_instance() {
        let mut b = ProgramBuilder::new(0, 4);
        let t1 = b.next_collective_tag();
        let t2 = b.next_collective_tag();
        assert_ne!(t1, t2);
        assert!(t1 >= ProgramBuilder::COLLECTIVE_TAG_BASE);
    }

    #[test]
    fn bytes_sent_counts_all_outgoing() {
        let mut b = ProgramBuilder::new(0, 2);
        b.send(1, 100, 1);
        b.sendrecv(1, 200, 2, 1, 300, 3);
        b.isend(1, 400, 4).wait_all(0);
        assert_eq!(b.build().bytes_sent(), 700);
    }

    #[test]
    fn bytes_sent_counts_expanded_collectives() {
        let mut b = ProgramBuilder::new(0, 4);
        b.alltoall_nonblocking(10).alltoall(100);
        // Three isends of 10 B, then three sendrecvs of 100 B.
        assert_eq!(b.build().bytes_sent(), 330);
    }

    #[test]
    fn isend_charges_cost_and_does_not_block_shape() {
        let mut b = ProgramBuilder::new(0, 2);
        b.isend(1, 2048, 3)
            .compute(WorkUnit::pure_cpu(10.0))
            .wait_all(2048);
        let p = b.build();
        assert!(matches!(p.ops()[0], Op::Compute(_))); // send-side copy
        assert!(matches!(
            p.ops()[1],
            Op::Isend {
                dst: 1,
                bytes: 2048,
                tag: 3
            }
        ));
        assert!(matches!(p.ops()[3], Op::WaitAll));
        assert!(matches!(p.ops()[4], Op::Compute(_))); // recv-side copy
    }

    #[test]
    fn wait_all_zero_bytes_charges_nothing() {
        let mut b = ProgramBuilder::new(0, 1);
        b.wait_all(0);
        let p = b.build();
        assert_eq!(p.len(), 1);
        assert!(matches!(p.ops()[0], Op::WaitAll));
    }

    #[test]
    fn nonblocking_alltoall_posts_all_then_waits() {
        let mut b = ProgramBuilder::new(0, 4);
        b.alltoall_nonblocking(1000);
        let p = b.build();
        let ops: Vec<Op> = p.expanded().collect();
        let irecvs = ops
            .iter()
            .filter(|op| matches!(op, Op::Irecv { .. }))
            .count();
        let isends = ops
            .iter()
            .filter(|op| matches!(op, Op::Isend { .. }))
            .count();
        let waits = ops.iter().filter(|op| matches!(op, Op::WaitAll)).count();
        assert_eq!(irecvs, 3);
        assert_eq!(isends, 3);
        assert_eq!(waits, 1);
        // All irecvs precede all isends (posting order avoids unexpected
        // eager buffering in real MPIs; we mirror the idiom).
        let first_isend = ops
            .iter()
            .position(|op| matches!(op, Op::Isend { .. }))
            .unwrap();
        let last_irecv = ops
            .iter()
            .rposition(|op| matches!(op, Op::Irecv { .. }))
            .unwrap();
        assert!(last_irecv < first_isend);
    }

    #[test]
    fn expansion_matches_the_same_calls_on_the_builder() {
        // A 3-rank alltoall is a local copy then the ring's rounds; the
        // same builder calls with the collective's tags give the same ops.
        let mut b = ProgramBuilder::new(1, 3);
        b.alltoall(1 << 20);
        let compact = b.build();
        let tag = ProgramBuilder::COLLECTIVE_TAG_BASE;
        let mut b = ProgramBuilder::new(1, 3);
        b.compute(b.msg_cost(1 << 20));
        b.sendrecv(2, 1 << 20, tag + 1, 0, 1 << 20, tag + 1);
        b.sendrecv(0, 1 << 20, tag + 2, 2, 1 << 20, tag + 2);
        let manual = b.build();
        assert_eq!(compact.len(), 1);
        assert_eq!(manual.len(), 7);
        assert_eq!(compact.expanded().collect::<Vec<_>>(), manual.ops());
    }

    #[test]
    fn with_ops_keeps_the_collective_context() {
        let mut b = ProgramBuilder::new(2, 4);
        b.barrier();
        let p = b.build();
        let mut ops = p.ops().to_vec();
        ops.insert(0, Op::PhaseBegin("x"));
        let q = p.with_ops(ops);
        assert_eq!(q.expanded().count(), p.expanded().count() + 1);
        assert_eq!(q.bytes_sent(), p.bytes_sent());
    }

    #[test]
    #[should_panic(expected = "from_ops takes point-to-point ops")]
    fn from_ops_rejects_collectives() {
        let mut b = ProgramBuilder::new(0, 2);
        b.barrier();
        let _ = Program::from_ops(b.build().ops().to_vec());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_unknown_rank_panics() {
        ProgramBuilder::new(0, 2).send(5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "rank 3 out of range")]
    fn builder_rank_must_fit_size() {
        let _ = ProgramBuilder::new(3, 2);
    }
}
