package pipeline

import (
	"conspec/internal/isa"
	"conspec/internal/mem"
	"conspec/internal/obs"
)

// fetchStage fetches up to FetchWidth instructions along the predicted path,
// predecodes control flow, and enqueues decoded uops for dispatch after the
// front-end pipeline delay. L1I misses stall fetch for the miss latency.
// With the §VII.B ICache-hit filter enabled, an L1I miss whose next-PC is
// unsafe (an unresolved branch is in flight) stalls WITHOUT refilling.
func (c *CPU) fetchStage() {
	if c.fetchHalted || c.cycle < c.fetchStallUntil {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fqLen >= c.fetchQCap {
			return
		}
		pc := c.fetchPC

		if c.sec.ICacheFilter && !c.hier.ProbeL1I(pc) && c.unresolvedBranchInFlight() {
			// Unsafe NPC missing L1I: the fetch request is not issued at
			// all; retry when the branches have resolved.
			c.stats.FetchStallsICacheFilter++
			return
		}
		r := c.hier.AccessInst(pc)
		if r.Level != mem.LevelL1 {
			// Miss: charge the full fill latency before instructions from
			// this line can enter the pipeline.
			c.fetchStallUntil = c.cycle + uint64(r.Latency)
			return
		}

		in := isa.Decode(c.hier.Backing.Read(pc, isa.InstBytes))
		if !in.Valid() {
			// Fetch ran off the program (almost always down a wrong path).
			// Stop fetching until a squash redirects.
			c.fetchHalted = true
			return
		}

		c.seq++
		u := c.allocUop()
		// Whole-struct assignment both resets a recycled uop and
		// initializes a fresh one.
		*u = uop{
			seq:   c.seq,
			pc:    pc,
			inst:  in,
			fu:    in.Op.Unit(),
			iqIdx: -1, ldqIdx: -1, stqIdx: -1,
			pdst: -1, psrc1: -1, psrc2: -1, oldPdst: -1,
			wait1: -1, wait2: -1,
			readyAt: c.cycle + uint64(c.cfg.FrontendDepth),
		}

		next := pc + isa.InstBytes
		endGroup := false
		switch {
		case in.Op == isa.OpHalt:
			c.fqPush(u)
			c.fetchHalted = true
			return
		case in.Op == isa.OpJal:
			// Direct jump: resolved at predecode, never speculated.
			next = pc + uint64(int64(in.Imm))
			if in.Rd != 0 {
				c.bp.PushRAS(pc + isa.InstBytes)
			}
			endGroup = true
		case in.Op == isa.OpJalr:
			u.isBranch = true
			u.bpCP = c.bp.Checkpoint()
			u.ghrAtPred = u.bpCP.GHR
			var target uint64
			var ok bool
			if in.Rd == 0 && in.Rs1 == 1 { // return: jalr x0, 0(ra)
				target, ok = c.bp.PopRAS()
			} else {
				target, ok = c.bp.PredictTarget(pc)
			}
			if in.Rd != 0 {
				c.bp.PushRAS(pc + isa.InstBytes)
			}
			if !ok {
				target = pc + isa.InstBytes // cold: guess fall-through
			}
			u.predTaken = true
			u.predTarget = target
			next = target
			endGroup = true
		case in.Op.IsCondBranch():
			u.isBranch = true
			u.bpCP = c.bp.Checkpoint()
			u.ghrAtPred = u.bpCP.GHR
			taken := c.bp.PredictCond(pc)
			u.predTaken = taken
			if taken {
				u.predTarget = pc + uint64(int64(in.Imm))
				next = u.predTarget
				endGroup = true
			} else {
				u.predTarget = pc + isa.InstBytes
			}
		}

		c.emit(obs.FlightFetch, u.seq, u.pc, 0, false)
		c.fqPush(u)
		c.fetchPC = next
		if endGroup {
			return // taken control flow ends the fetch group
		}
	}
}

// dispatchStage renames and dispatches fetched uops in order, allocating
// ROB, issue-queue and LSQ entries, and initializes the security dependence
// matrix row for memory instructions.
func (c *CPU) dispatchStage() {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fqLen == 0 {
			return
		}
		u := c.fetchQ[c.fqHead]
		if u.readyAt > c.cycle || c.robFull() {
			return
		}
		op := u.inst.Op

		needsIQ := op != isa.OpNop && op != isa.OpHalt && op != isa.OpFence
		var iqSlot, ldqSlot, stqSlot = -1, -1, -1
		if needsIQ {
			iqSlot = maskFirstSet(c.iqFree)
			if iqSlot < 0 {
				return
			}
		}
		if op.IsLoad() {
			ldqSlot = maskFirstSet(c.ldqFree)
			if ldqSlot < 0 {
				return
			}
		}
		if op.IsStore() {
			stqSlot = maskFirstSet(c.stqFree)
			if stqSlot < 0 {
				return
			}
		}
		useRs1, useRs2 := u.inst.Sources()
		if u.inst.HasDest() && len(c.freeList) == 0 {
			return
		}

		// All resources available: commit to dispatching this uop.
		c.fqPop()
		if useRs1 {
			u.psrc1 = c.renameMap[u.inst.Rs1]
		}
		if useRs2 {
			u.psrc2 = c.renameMap[u.inst.Rs2]
		}
		if u.inst.HasDest() {
			u.archRd = u.inst.Rd
			u.oldPdst = c.renameMap[u.inst.Rd]
			p := c.freeList[len(c.freeList)-1]
			c.freeList = c.freeList[:len(c.freeList)-1]
			u.pdst = p
			c.physReady[p] = false
			// Drop wakeup registrations left on p by a squashed former
			// writer: a register can only gain waiters again once it is
			// re-allocated as a destination, which is exactly now.
			c.truncWaiters(p)
			c.renameMap[u.inst.Rd] = p
		}

		if c.unresolvedBranchInFlight() {
			c.stats.UnresolvedBranchAtDispatch++
		}

		c.emit(obs.FlightDispatch, u.seq, u.pc, 0, false)
		c.robPush(u)
		u.dispatched = true
		u.dispatchCycle = c.cycle
		if u.isBranch {
			c.unresolvedBranches++
		}
		if c.def.SerializeBranches && u.isBranch && c.serializeSeq == 0 {
			// Fence defense: a newly dispatched branch is the youngest, so it
			// only becomes the watermark when no older branch is unresolved.
			c.serializeSeq = u.seq
		}

		switch op {
		case isa.OpNop, isa.OpHalt:
			u.completed = true
		case isa.OpFence:
			if c.fenceSeq == 0 {
				c.fenceSeq = u.seq
			}
		}

		if iqSlot >= 0 {
			c.iq[iqSlot] = u
			u.iqIdx = iqSlot
			c.iqCount++
			maskClear(c.iqFree, iqSlot)
			if c.secmat != nil {
				// prodMask is exactly the snapshot the §V.B formula consumes:
				// every occupied, unissued producer-class slot except iqSlot
				// (the new occupant's bit is only set below).
				c.secmat.OnDispatchMask(iqSlot, u.class(), c.prodMask)
				c.emit(obs.FlightSecRowSet, u.seq, u.pc, uint64(iqSlot), false)
				if c.secmat.IsProducer(u.class()) {
					maskSet(c.prodMask, iqSlot)
				}
			}
			c.linkWakeups(u)
		}
		if ldqSlot >= 0 {
			c.ldq[ldqSlot] = u
			u.ldqIdx = ldqSlot
			maskClear(c.ldqFree, ldqSlot)
			c.tpbuf.Allocate(ldqSlot)
			c.emit(obs.FlightTPBufAlloc, u.seq, u.pc, uint64(ldqSlot), false)
		}
		if stqSlot >= 0 {
			c.stq[stqSlot] = u
			u.stqIdx = stqSlot
			maskClear(c.stqFree, stqSlot)
			c.tpbuf.Allocate(c.cfg.LDQ + stqSlot)
			c.emit(obs.FlightTPBufAlloc, u.seq, u.pc, uint64(c.cfg.LDQ+stqSlot), false)
			c.noteStoreDispatched(u)
		}
	}
}
