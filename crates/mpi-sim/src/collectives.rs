//! Collective algorithms, expanded on demand into point-to-point steps.
//!
//! These are the algorithms MPICH-1.2.5 shipped: dissemination barrier,
//! binomial-tree broadcast and reduce, linear gather, and pairwise-exchange
//! (power-of-two) / ring (general) all-to-all. A collective stays one
//! compact [`Op::Collective`](crate::program::Op::Collective) in its
//! program; [`step`] computes the calling rank's `i`-th step of the
//! algorithm from the op's fields alone, in O(1) state, and
//! [`crate::program::Program::expanded`] turns each step into ops. When
//! every rank of the job runs its expanded sequence, the message pattern
//! is exactly the collective's.
//!
//! Correctness of the expansion is tested here structurally (per-rank
//! send/recv multisets match across the job) and end-to-end in the engine
//! tests (all collectives complete without deadlock and with the right
//! synchronization semantics).

use mem_model::WorkUnit;

use crate::program::{Rank, Step, Tag};

/// Payload used for barrier notifications (an empty MPI message still
/// carries an envelope on the wire).
pub(crate) const BARRIER_BYTES: u64 = 64;

/// Core cycles to combine one byte in a reduction (sum of doubles: one
/// flop per 8 bytes plus load/store).
const REDUCE_CYCLES_PER_BYTE: f64 = 0.5;

/// Which algorithm a compact collective op runs. The op's `bytes` is the
/// payload per message (barrier, bcast, reduce), per rank (gather,
/// scatter, allgather) or per rank pair (both all-to-alls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Dissemination barrier: ceil(log2 n) rounds; in round `k`, rank `r`
    /// sends to `(r + 2^k) mod n` and receives from `(r - 2^k) mod n`.
    Barrier,
    /// Binomial-tree broadcast from `root`.
    Bcast,
    /// Binomial-tree reduction to `root`; each merge charges the combine
    /// cost as compute.
    Reduce,
    /// Linear gather: every non-root rank sends to `root`; the root
    /// receives from every other rank in rank order.
    Gather,
    /// Binomial-tree scatter: the root starts holding a share for every
    /// rank and forwards each subtree's shares down the same tree
    /// broadcast uses, so the payload halves at every level.
    Scatter,
    /// Recursive doubling for power-of-two sizes (round `k` exchanges
    /// `2^k · bytes` with `rank XOR 2^k`), ring otherwise (`n-1` rounds
    /// passing one block to the right neighbour).
    Allgather,
    /// Complete exchange. Power-of-two sizes use pairwise exchange (round
    /// `r`: partner = `rank XOR r`, perfectly disjoint pairs that saturate
    /// every link's full duplex); other sizes use the ring schedule (round
    /// `r`: send to `rank + r`, receive from `rank - r`). The rank-to-self
    /// block is a local copy and charges only its copy cost.
    Alltoall,
    /// Flood-style complete exchange (how MPI_Alltoall is implemented on
    /// fully connected fabrics): post every irecv and isend at once, then
    /// wait.
    AlltoallNonblocking,
}

/// Smallest power of two in `rel`, the bit a binomial tree receives at.
fn low_bit(rel: usize) -> usize {
    rel & rel.wrapping_neg()
}

/// The binomial tree's child masks for relative rank `rel`: every power
/// of two at or below the returned limit, below the bit `rel` receives at
/// and inside the job. Zero for a leaf.
fn child_limit(rel: usize, n: usize) -> usize {
    if rel == 0 {
        n - 1
    } else {
        (low_bit(rel) - 1).min(n - rel - 1)
    }
}

/// The `i`-th largest power of two at or below `limit` (children are
/// visited from the largest subtree down), or `None` past the last.
fn child_mask_desc(limit: usize, i: usize) -> Option<usize> {
    if limit == 0 {
        return None;
    }
    let top = 1usize << (usize::BITS - 1 - limit.leading_zeros());
    top.checked_shr(u32::try_from(i).ok()?).filter(|&m| m > 0)
}

/// `x mod n` for `x < 2n`: every rank sum below is two ranks (or a rank
/// and a distance) each under `n`, so one conditional subtract replaces
/// the division.
#[inline]
fn wrap(x: usize, n: usize) -> usize {
    debug_assert!(x < 2 * n);
    if x >= n {
        x - n
    } else {
        x
    }
}

/// Number of powers of two at or below `limit`.
fn child_count(limit: usize) -> usize {
    (usize::BITS - limit.leading_zeros()) as usize
}

/// Rank `rank`'s `i`-th step of a `size`-rank collective, or `None` once
/// its part is done. Single-rank collectives have no steps. `rank` and
/// `root` are below `size` (the builder asserts both).
pub(crate) fn step(
    kind: CollectiveKind,
    rank: Rank,
    size: usize,
    root: Rank,
    bytes: u64,
    tag: Tag,
    i: usize,
) -> Option<Step> {
    let n = size;
    if n == 1 {
        return None;
    }
    let r = rank;
    let rel = wrap(r + n - root, n);
    let abs = |rel: usize| wrap(rel + root, n);
    match kind {
        CollectiveKind::Barrier => {
            let dist = 1usize.checked_shl(u32::try_from(i).ok()?)?;
            if dist >= n {
                return None;
            }
            let k = i as Tag;
            Some(Step::SendRecv {
                dst: wrap(r + dist, n),
                send_bytes: bytes,
                send_tag: tag + k,
                src: wrap(r + n - dist, n),
                recv_bytes: bytes,
                recv_tag: tag + k,
            })
        }
        CollectiveKind::Bcast | CollectiveKind::Scatter => {
            let scatter = kind == CollectiveKind::Scatter;
            // A subtree entered via bit `mask` at `rel` spans
            // min(mask, n - rel) ranks.
            let payload = |rel: usize, mask: usize| {
                if scatter {
                    mask.min(n - rel) as u64 * bytes
                } else {
                    bytes
                }
            };
            // A non-root rank first receives from the rank that differs in
            // its lowest set bit, then forwards down its subtree.
            let i = if rel == 0 {
                i
            } else if i == 0 {
                let low = low_bit(rel);
                return Some(Step::Recv {
                    src: abs(rel - low),
                    bytes: payload(rel, low),
                    tag,
                });
            } else {
                i - 1
            };
            let mask = child_mask_desc(child_limit(rel, n), i)?;
            Some(Step::Send {
                dst: abs(rel + mask),
                bytes: payload(rel + mask, mask),
                tag,
            })
        }
        CollectiveKind::Reduce => {
            // Receive (then combine) from each child, smallest subtree
            // first; then a non-root rank sends to its parent.
            let merges = child_count(child_limit(rel, n));
            if i < 2 * merges {
                let mask = 1usize << (i / 2);
                return Some(if i.is_multiple_of(2) {
                    Step::Recv {
                        src: abs(rel | mask),
                        bytes,
                        tag,
                    }
                } else {
                    Step::Compute(WorkUnit::pure_cpu(bytes as f64 * REDUCE_CYCLES_PER_BYTE))
                });
            }
            (i == 2 * merges && rel != 0).then(|| Step::Send {
                dst: abs(rel - low_bit(rel)),
                bytes,
                tag,
            })
        }
        CollectiveKind::Gather => {
            if r == root {
                (i < n - 1).then(|| Step::Recv {
                    src: if i < root { i } else { i + 1 },
                    bytes,
                    tag,
                })
            } else {
                (i == 0).then_some(Step::Send {
                    dst: root,
                    bytes,
                    tag,
                })
            }
        }
        CollectiveKind::Allgather => {
            if n.is_power_of_two() {
                let dist = 1usize.checked_shl(u32::try_from(i).ok()?)?;
                if dist >= n {
                    return None;
                }
                let partner = r ^ dist;
                let payload = dist as u64 * bytes;
                let k = i as Tag;
                Some(Step::SendRecv {
                    dst: partner,
                    send_bytes: payload,
                    send_tag: tag + k,
                    src: partner,
                    recv_bytes: payload,
                    recv_tag: tag + k,
                })
            } else {
                let round = i as Tag;
                (i < n - 1).then(|| Step::SendRecv {
                    dst: wrap(r + 1, n),
                    send_bytes: bytes,
                    send_tag: tag + round,
                    src: wrap(r + n - 1, n),
                    recv_bytes: bytes,
                    recv_tag: tag + round,
                })
            }
        }
        CollectiveKind::Alltoall => {
            if i == 0 {
                return Some(Step::Copy(bytes));
            }
            let round = i;
            if round >= n {
                return None;
            }
            let (dst, src) = if n.is_power_of_two() {
                (r ^ round, r ^ round)
            } else {
                (wrap(r + round, n), wrap(r + n - round, n))
            };
            Some(Step::SendRecv {
                dst,
                send_bytes: bytes,
                send_tag: tag + round as Tag,
                src,
                recv_bytes: bytes,
                recv_tag: tag + round as Tag,
            })
        }
        CollectiveKind::AlltoallNonblocking => {
            // Local copy, n-1 irecvs, n-1 isends, one waitall.
            if i == 0 {
                Some(Step::Copy(bytes))
            } else if i < n {
                let round = i;
                Some(Step::Irecv {
                    src: wrap(r + n - round, n),
                    tag: tag + round as Tag,
                })
            } else if i < 2 * n - 1 {
                let round = i - (n - 1);
                Some(Step::Isend {
                    dst: wrap(r + round, n),
                    bytes,
                    tag: tag + round as Tag,
                })
            } else {
                (i == 2 * n - 1).then_some(Step::WaitAll {
                    copy_bytes: bytes * (n as u64 - 1),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::program::{Op, Program, ProgramBuilder, Tag};

    /// Build all ranks' programs for a closure over the builder.
    fn lower_all(n: usize, f: impl Fn(&mut ProgramBuilder)) -> Vec<Program> {
        (0..n)
            .map(|r| {
                let mut b = ProgramBuilder::new(r, n);
                f(&mut b);
                b.build()
            })
            .collect()
    }

    /// Collect (src, dst, tag, bytes) for every send and the matching
    /// multiset for every recv across the job; they must be identical for
    /// the pattern to complete.
    type Sends = Vec<(usize, usize, Tag, u64)>;
    type Recvs = Vec<(usize, usize, Tag)>;

    fn matched_sends_recvs(programs: &[Program]) -> (Sends, Recvs) {
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (rank, p) in programs.iter().enumerate() {
            for op in p.expanded() {
                match op {
                    Op::Send { dst, bytes, tag } | Op::Isend { dst, bytes, tag } => {
                        sends.push((rank, dst, tag, bytes))
                    }
                    Op::Recv { src, tag } | Op::Irecv { src, tag } => recvs.push((src, rank, tag)),
                    Op::SendRecv {
                        dst,
                        send_bytes,
                        send_tag,
                        src,
                        recv_tag,
                    } => {
                        sends.push((rank, dst, send_tag, send_bytes));
                        recvs.push((src, rank, recv_tag));
                    }
                    _ => {}
                }
            }
        }
        (sends, recvs)
    }

    fn assert_pattern_closed(programs: &[Program]) {
        let (sends, recvs) = matched_sends_recvs(programs);
        let mut s: Vec<(usize, usize, Tag)> = sends.iter().map(|&(a, b, t, _)| (a, b, t)).collect();
        let mut r = recvs.clone();
        s.sort_unstable();
        r.sort_unstable();
        assert_eq!(s, r, "every send needs exactly one matching recv");
    }

    fn count(p: &Program, pat: fn(&Op) -> bool) -> usize {
        p.expanded().filter(pat).count()
    }

    #[test]
    fn barrier_pattern_is_closed_for_all_sizes() {
        for n in 1..=9 {
            assert_pattern_closed(&lower_all(n, |b| {
                b.barrier();
            }));
        }
    }

    #[test]
    fn barrier_rounds_are_logarithmic() {
        let p = lower_all(8, |b| {
            b.barrier();
        });
        assert_eq!(count(&p[0], |op| matches!(op, Op::SendRecv { .. })), 3); // log2(8)
    }

    #[test]
    fn bcast_pattern_is_closed_for_all_sizes_and_roots() {
        for n in 1..=9 {
            for root in 0..n {
                assert_pattern_closed(&lower_all(n, |b| {
                    b.bcast(root, 4096);
                }));
            }
        }
    }

    #[test]
    fn bcast_root_only_sends_leaf_only_receives() {
        let p = lower_all(8, |b| {
            b.bcast(2, 100);
        });
        assert!(!p[2].expanded().any(|op| matches!(op, Op::Recv { .. })));
        // Rank (2+7)%8 = 1 is the deepest leaf: receives once, sends never.
        assert!(!p[1].expanded().any(|op| matches!(op, Op::Send { .. })));
    }

    #[test]
    fn reduce_pattern_is_closed_for_all_sizes_and_roots() {
        for n in 1..=9 {
            for root in 0..n {
                assert_pattern_closed(&lower_all(n, |b| {
                    b.reduce(root, 4096);
                }));
            }
        }
    }

    #[test]
    fn reduce_charges_combine_work_at_receivers() {
        let p = lower_all(4, |b| {
            b.reduce(0, 8000);
        });
        // Root merges log2(4) = 2 partial results: recv cost + combine per
        // merge = 2 computes per merge.
        assert_eq!(count(&p[0], |op| matches!(op, Op::Compute(_))), 4);
    }

    #[test]
    fn gather_pattern_is_closed() {
        for n in 2..=6 {
            assert_pattern_closed(&lower_all(n, |b| {
                b.gather(0, 1024);
            }));
        }
    }

    #[test]
    fn gather_root_receives_n_minus_one() {
        let p = lower_all(15, |b| {
            b.gather(0, 1024);
        });
        assert_eq!(count(&p[0], |op| matches!(op, Op::Recv { .. })), 14);
    }

    #[test]
    fn scatter_pattern_is_closed_for_all_sizes_and_roots() {
        for n in 1..=9 {
            for root in 0..n {
                assert_pattern_closed(&lower_all(n, |b| {
                    b.scatter(root, 1000);
                }));
            }
        }
    }

    #[test]
    fn scatter_volume_halves_down_the_tree() {
        let p = lower_all(8, |b| {
            b.scatter(0, 100);
        });
        // Root sends subtree shares: 4, 2, 1 ranks worth.
        let root_sends: Vec<u64> = p[0]
            .expanded()
            .filter_map(|op| match op {
                Op::Send { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(root_sends, vec![400, 200, 100]);
        // The deepest leaf receives exactly its own share.
        assert_eq!(count(&p[7], |op| matches!(op, Op::Recv { .. })), 1);
    }

    #[test]
    fn scatter_non_pow2_total_volume_conserved() {
        // Across all ranks, received payload must equal (n-1) own shares
        // plus forwarded subtree traffic; check sends == recvs by bytes.
        for n in [3usize, 5, 6, 7] {
            let p = lower_all(n, |b| {
                b.scatter(0, 10);
            });
            let (sends, _recvs) = matched_sends_recvs(&p);
            let sent: u64 = sends.iter().map(|&(_, _, _, b)| b).sum();
            // Every non-root rank's subtree share crosses exactly one link
            // on its way down, so total bytes = sum of subtree sizes at
            // each transfer >= (n-1) shares.
            assert!(sent >= (n as u64 - 1) * 10, "n={n}: sent {sent}");
        }
    }

    #[test]
    fn allgather_pattern_is_closed_pow2_and_ring() {
        for n in [1usize, 2, 4, 8, 3, 5, 15] {
            assert_pattern_closed(&lower_all(n, |b| {
                b.allgather(4096);
            }));
        }
    }

    #[test]
    fn allgather_recursive_doubling_volume() {
        let p = lower_all(8, |b| {
            b.allgather(100);
        });
        // Each rank sends 100 + 200 + 400 = (n-1)*100 bytes total.
        assert_eq!(p[0].bytes_sent(), 700);
        assert_eq!(count(&p[0], |op| matches!(op, Op::SendRecv { .. })), 3);
    }

    #[test]
    fn allgather_ring_takes_n_minus_one_rounds() {
        let p = lower_all(5, |b| {
            b.allgather(100);
        });
        assert_eq!(count(&p[2], |op| matches!(op, Op::SendRecv { .. })), 4);
        assert_eq!(p[2].bytes_sent(), 400);
    }

    #[test]
    fn alltoall_pattern_is_closed_pow2_and_ring() {
        for n in [2usize, 4, 8, 3, 5, 15] {
            assert_pattern_closed(&lower_all(n, |b| {
                b.alltoall(4096);
            }));
        }
    }

    #[test]
    fn nonblocking_alltoall_pattern_is_closed() {
        for n in [2usize, 4, 8, 3, 5, 15] {
            assert_pattern_closed(&lower_all(n, |b| {
                b.alltoall_nonblocking(4096);
            }));
        }
    }

    #[test]
    fn alltoall_pow2_uses_disjoint_pairs() {
        // In each round of the XOR schedule, partners are symmetric:
        // partner(partner(r)) == r.
        for n in [2usize, 4, 8, 16] {
            for round in 1..n {
                for r in 0..n {
                    assert_eq!((r ^ round) ^ round, r);
                    assert!(r ^ round < n);
                }
            }
        }
    }

    #[test]
    fn alltoall_exchanges_with_every_peer_exactly_once() {
        let p = lower_all(8, |b| {
            b.alltoall(10);
        });
        for (rank, prog) in p.iter().enumerate() {
            let mut partners: Vec<usize> = prog
                .expanded()
                .filter_map(|op| match op {
                    Op::SendRecv { dst, .. } => Some(dst),
                    _ => None,
                })
                .collect();
            partners.sort_unstable();
            let expect: Vec<usize> = (0..8).filter(|&x| x != rank).collect();
            assert_eq!(partners, expect);
        }
    }

    #[test]
    fn single_rank_collectives_are_empty_or_local() {
        let p = lower_all(1, |b| {
            b.barrier();
            b.bcast(0, 100);
            b.reduce(0, 100);
            b.gather(0, 100);
        });
        assert!(p[0].is_empty());
        assert_eq!(p[0].expanded().count(), 0);
    }

    #[test]
    fn each_collective_is_one_compact_op() {
        let p = lower_all(64, |b| {
            b.barrier();
            b.alltoall(10);
            b.alltoall_nonblocking(10);
            b.allreduce(8); // a reduce and a bcast
        });
        assert_eq!(p[5].len(), 5);
        assert!(p[5]
            .ops()
            .iter()
            .all(|op| matches!(op, Op::Collective { .. })));
        assert!(p[5].expanded().count() > 3 * 64);
    }
}
