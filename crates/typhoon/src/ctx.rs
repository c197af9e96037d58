//! Typhoon's implementation of the Tempest context.
//!
//! A [`NodeCtx`] is constructed for the duration of one protocol handler
//! invocation. It accumulates the handler's cost (charged instructions,
//! NP cache and TLB delays, block transfers) so that messages sent and
//! threads resumed *during* the handler carry the correct timestamps —
//! the paper's observation that "the critical path is even shorter, since
//! most bookkeeping is performed after a message is sent" falls out
//! naturally: a handler that charges bookkeeping instructions after its
//! `send` does not delay the message.

use tt_base::addr::{Ppn, VAddr, Vpn, BLOCK_BYTES};
use tt_base::config::SystemConfig;
use tt_base::{Cycles, NodeId};
use tt_mem::cache::Probe;
use tt_mem::{NodeMemory, PageMeta, PageTable, Tag};
use tt_net::{Network, Packet, Payload, VirtualNet};
use tt_tempest::{BulkRequest, HandlerId, TempestCtx, TempestError, ThreadId};
use tt_sim::NodeQueue;

use crate::cpu::{CpuState, CpuStatus};
use crate::machine::{BulkState, Event};
use crate::np::NpState;

/// The per-handler Tempest context (see module docs).
pub struct NodeCtx<'a> {
    pub(crate) id: NodeId,
    pub(crate) nodes: usize,
    pub(crate) cfg: &'a SystemConfig,
    /// Time the handler began executing (after dispatch overhead).
    pub(crate) start: Cycles,
    /// Cost accumulated so far by this handler.
    pub(crate) cost: Cycles,
    pub(crate) cpu: &'a mut CpuState,
    pub(crate) np: &'a mut NpState,
    pub(crate) mem: &'a mut NodeMemory,
    pub(crate) ptable: &'a mut PageTable,
    pub(crate) network: &'a mut Network,
    pub(crate) queue: &'a mut NodeQueue<Event>,
    pub(crate) bulk_out: &'a mut Vec<BulkState>,
    pub(crate) bulk_seq: &'a mut u64,
}

impl NodeCtx<'_> {
    /// Total handler cost accumulated (the machine uses this to set the
    /// NP busy time).
    pub(crate) fn total_cost(&self) -> Cycles {
        self.cost
    }

    /// Attempts the faulted access the CPU was suspended on (see
    /// [`TempestCtx::resume`]): completes it if the tags now permit,
    /// or re-faults (the Stache page-fault handler resumes expecting a
    /// block fault, so a refault here is normal, not an error).
    fn retry_pending_access(&mut self) {
        use tt_base::workload::Op;
        let op = match self.cpu.chunk.get(self.cpu.pc) {
            Some(op) => *op,
            None => return,
        };
        let (addr, kind, value, expect, record) = match op {
            Op::Read { addr, expect } => (addr, tt_mem::AccessKind::Load, 0, expect, false),
            Op::ReadRecord { addr } => (addr, tt_mem::AccessKind::Load, 0, None, true),
            Op::Write { addr, value } => (addr, tt_mem::AccessKind::Store, value, None, false),
            _ => return,
        };
        match crate::cpu::exec_access(
            self.cfg, self.cpu, self.np, self.mem, self.ptable, addr, kind, value,
        ) {
            crate::cpu::AccessOutcome::Done { cost, value: loaded } => {
                if self.cfg.verify_values {
                    if let (Some(expect), Some(got)) = (expect, loaded) {
                        assert_eq!(
                            got, expect,
                            "coherence violation: node {} read {addr} on retry",
                            self.id
                        );
                    }
                }
                if record {
                    self.cpu
                        .recorded
                        .push(loaded.expect("a load always produces a value"));
                }
                self.cpu.clock += cost;
                self.cpu.pc += 1;
            }
            crate::cpu::AccessOutcome::PageFault(fault, cost) => {
                self.cpu.clock += cost + self.cfg.typhoon.effective_fault_detect();
                self.cpu.status = CpuStatus::BlockedFault;
                self.cpu.suspended_at = self.cpu.clock;
                let at = self.cpu.clock;
                self.queue.schedule(
                    at,
                    Event::NpWork {
                        node: self.id.index(),
                        work: crate::np::NpWork::PageFault(fault),
                    },
                );
            }
            crate::cpu::AccessOutcome::BlockFault(fault, cost) => {
                self.cpu.clock += cost;
                self.cpu.status = CpuStatus::BlockedFault;
                self.cpu.suspended_at = self.cpu.clock;
                let at = self.cpu.clock;
                self.queue.schedule(
                    at,
                    Event::NpWork {
                        node: self.id.index(),
                        work: crate::np::NpWork::BlockFault(fault),
                    },
                );
            }
        }
    }

    fn translate_or_die(&self, addr: VAddr) -> tt_base::addr::PAddr {
        self.ptable.translate_addr(addr).unwrap_or_else(|| {
            panic!(
                "node {}: NP access to unmapped address {addr} — an NP page \
                 fault is a user programming error (paper Section 5.1)",
                self.id
            )
        })
    }

    /// Charges an NP forward-TLB access for a handler memory operation.
    fn charge_np_tlb(&mut self, vpn: Vpn) {
        if self.np.tlb.access(vpn) {
            self.cost += Cycles::new(1);
        } else {
            self.cost += self.cfg.typhoon.np_tlb_miss;
        }
    }

    /// Charges an RTLB access for a tag operation.
    fn charge_rtlb(&mut self, ppn: Ppn) {
        if self.np.rtlb.access(ppn) {
            self.cost += Cycles::new(1);
        } else {
            self.cost += self.cfg.typhoon.np_tlb_miss;
        }
    }

    /// Keeps the primary CPU's cache consistent with a new tag value: a
    /// block the CPU may no longer write is downgraded, a block it may no
    /// longer access is purged (the NP issues the MBus coherence
    /// transaction).
    fn enforce_cache_consistency(&mut self, paddr: tt_base::addr::PAddr, tag: Tag) {
        let key = paddr.raw() / BLOCK_BYTES as u64;
        match tag {
            Tag::ReadWrite => {}
            Tag::ReadOnly => {
                if self.cpu.cache.peek(key) == Probe::HitOwned {
                    self.cpu.cache.set_owned(key, false);
                }
            }
            Tag::Invalid | Tag::Busy => {
                self.cpu.cache.invalidate(key);
            }
        }
    }
}

impl TempestCtx for NodeCtx<'_> {
    fn node(&self) -> NodeId {
        self.id
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn now(&self) -> Cycles {
        self.start + self.cost
    }

    fn charge(&mut self, instructions: u64) {
        let scaled = self.cfg.scaled_handler_instr(instructions);
        self.cost += Cycles::new(scaled);
        self.np.stats.instructions.add(scaled);
    }

    fn protocol_data_access(&mut self, key: u64) {
        match self.np.dcache.probe(key) {
            Probe::Miss => {
                self.cost += self.cfg.timing.local_miss;
                self.np.dcache.fill(key, true);
            }
            _ => self.cost += Cycles::new(1),
        }
    }

    fn send(&mut self, dst: NodeId, vn: VirtualNet, handler: HandlerId, payload: Payload) {
        let packet = Packet {
            src: self.id,
            dst,
            vn,
            handler: handler.raw(),
            payload,
        };
        // `transmit` applies the installed fault schedule (if any) and
        // yields zero, one, or two delivery times; with no fault plan it
        // is exactly `Network::send`.
        let deliveries = self.network.transmit(self.now(), &packet);
        for deliver_at in deliveries.iter() {
            self.queue.schedule(deliver_at, Event::Deliver(packet.clone()));
        }
    }

    fn set_timer(&mut self, at: Cycles, token: u64) {
        // The firing is ordinary NP work on this node and takes its
        // place in the deterministic event order like every message
        // delivery.
        let at = at.max(self.now());
        self.queue.schedule(
            at,
            Event::NpWork {
                node: self.id.index(),
                work: crate::np::NpWork::Timer(token),
            },
        );
    }

    fn bulk_transfer(&mut self, request: BulkRequest) {
        assert_eq!(request.bytes % 8, 0, "bulk transfers must be word-aligned");
        *self.bulk_seq += 1;
        let id = *self.bulk_seq;
        self.bulk_out.push(BulkState {
            id,
            request,
            offset: 0,
        });
        self.queue.schedule(
            self.now(),
            Event::BulkInject {
                node: self.id.index(),
                id,
            },
        );
    }

    fn alloc_page(&mut self) -> Ppn {
        self.mem.alloc()
    }

    fn free_page(&mut self, ppn: Ppn) {
        self.mem.free(ppn);
    }

    fn map_page(&mut self, vpn: Vpn, ppn: Ppn) -> Result<(), TempestError> {
        self.ptable.map(vpn, ppn)?;
        self.mem.frame_mut(ppn).meta.vpn = Some(vpn);
        Ok(())
    }

    fn unmap_page(&mut self, vpn: Vpn) -> Result<Ppn, TempestError> {
        let ppn = self.ptable.unmap(vpn)?;
        // Stale translations and tag residency must be flushed, and any
        // CPU-cached blocks of the frame purged (the frame is about to be
        // re-purposed).
        self.cpu.tlb.flush(vpn);
        self.np.tlb.flush(vpn);
        self.np.rtlb.flush(ppn);
        let first_block = ppn.base().raw() / BLOCK_BYTES as u64;
        self.cpu
            .cache
            .invalidate_range(first_block..first_block + tt_base::addr::BLOCKS_PER_PAGE as u64);
        self.mem.frame_mut(ppn).meta.vpn = None;
        Ok(ppn)
    }

    fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        self.ptable.translate(vpn)
    }

    fn page_meta(&self, vpn: Vpn) -> Option<PageMeta> {
        self.ptable.translate(vpn).map(|p| self.mem.frame(p).meta)
    }

    fn set_page_meta(&mut self, vpn: Vpn, meta: PageMeta) {
        let ppn = self
            .ptable
            .translate(vpn)
            .unwrap_or_else(|| panic!("set_page_meta on unmapped page {vpn:?}"));
        let mut meta = meta;
        meta.vpn = Some(vpn);
        self.mem.frame_mut(ppn).meta = meta;
    }

    fn allocated_bytes(&self) -> usize {
        self.mem.allocated_bytes()
    }

    fn read_tag(&self, addr: VAddr) -> Tag {
        let paddr = self.translate_or_die(addr);
        self.mem.tag(paddr)
    }

    fn set_tag(&mut self, addr: VAddr, tag: Tag) {
        let paddr = self.translate_or_die(addr);
        self.charge_rtlb(paddr.page());
        self.mem.set_tag(paddr, tag);
        self.enforce_cache_consistency(paddr, tag);
    }

    fn set_page_tags(&mut self, vpn: Vpn, tag: Tag) {
        let ppn = self
            .ptable
            .translate(vpn)
            .unwrap_or_else(|| panic!("set_page_tags on unmapped page {vpn:?}"));
        self.charge_rtlb(ppn);
        self.mem.frame_mut(ppn).set_all_tags(tag);
        if tag != Tag::ReadWrite {
            let first = ppn.base();
            for b in 0..tt_base::addr::BLOCKS_PER_PAGE {
                self.enforce_cache_consistency(first.offset((b * BLOCK_BYTES) as u64), tag);
            }
        }
    }

    fn force_read_word(&mut self, addr: VAddr) -> u64 {
        self.charge_np_tlb(addr.page());
        self.cost += Cycles::new(1);
        let paddr = self.translate_or_die(addr);
        self.mem.read_word(paddr)
    }

    fn force_write_word(&mut self, addr: VAddr, value: u64) {
        self.charge_np_tlb(addr.page());
        self.cost += Cycles::new(1);
        let paddr = self.translate_or_die(addr);
        self.mem.write_word(paddr, value);
        // The block-transfer path is coherent with the CPU cache: purge
        // any (now stale) CPU copy.
        self.cpu.cache.invalidate(paddr.raw() / BLOCK_BYTES as u64);
    }

    fn force_read_block(&mut self, addr: VAddr) -> [u8; BLOCK_BYTES] {
        self.charge_np_tlb(addr.page());
        self.cost += self.cfg.typhoon.np_block_xfer;
        let paddr = self.translate_or_die(addr);
        self.mem.read_block(paddr)
    }

    fn force_write_block(&mut self, addr: VAddr, block: &[u8; BLOCK_BYTES]) {
        self.charge_np_tlb(addr.page());
        self.cost += self.cfg.typhoon.np_block_xfer;
        let paddr = self.translate_or_die(addr);
        self.mem.write_block(paddr, block);
        self.cpu.cache.invalidate(paddr.raw() / BLOCK_BYTES as u64);
    }

    fn resume(&mut self, thread: ThreadId) {
        assert_eq!(
            thread.node(),
            self.id,
            "resume of a non-local thread: handlers can only resume their own node's computation"
        );
        assert!(
            matches!(
                self.cpu.status,
                CpuStatus::BlockedFault | CpuStatus::BlockedCall
            ),
            "resume of a thread that is not suspended (status {:?})",
            self.cpu.status
        );
        let resume_at = self.now() + Cycles::new(1);
        let stalled = resume_at - self.cpu.suspended_at;
        let was_fault = self.cpu.status == CpuStatus::BlockedFault;
        match self.cpu.status {
            CpuStatus::BlockedFault => self.cpu.stats.fault_stall_cycles.add(stalled.raw()),
            CpuStatus::BlockedCall => self.cpu.stats.call_stall_cycles.add(stalled.raw()),
            _ => unreachable!(),
        }
        self.cpu.status = CpuStatus::Ready;
        self.cpu.clock = if self.cpu.clock > resume_at {
            self.cpu.clock
        } else {
            resume_at
        };

        // Resuming unmasks the CPU's nacked bus transaction, which
        // completes *before* the NP dispatches another handler — so the
        // retried access is attempted right here. Without this, a recall
        // or invalidation queued behind the current handler would
        // systematically steal the block before the retry, and two
        // writers hammering one block could livelock (real Typhoon gives
        // the pending transaction the same priority).
        if was_fault {
            self.retry_pending_access();
        }
        if self.cpu.status == CpuStatus::Ready && !self.cpu.step_pending {
            self.cpu.step_pending = true;
            let at = self.cpu.clock;
            self.queue.schedule(at, Event::CpuStep(self.id.index()));
        }
    }
}
