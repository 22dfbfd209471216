package pipeline

// This file holds the allocation-free hot-path machinery: the uop free
// pool, the incrementally maintained ready list the select logic walks
// instead of rescanning the whole issue queue, the per-register wakeup
// lists that feed it, and the SSBD unresolved-store watermark.
//
// Invariants (checked by CheckInvariants):
//
//   - readyList is sorted by ascending seq and contains exactly the
//     issue-queue entries whose issue operands are all ready
//     (u.iqIdx >= 0 && u.waitCnt == 0 ⟺ u.inReady);
//   - a uop waits on at most the operands eligible() requires: psrc1,
//     and psrc2 only when it is not a split store;
//   - unresolvedStoreSeq is the seq of the oldest STQ entry with an
//     unresolved address, or 0 when every store address is known.
//
// Source readiness is monotonic for live issue-queue entries — a physical
// register read by a live consumer cannot be freed and re-allocated before
// that consumer leaves the queue (in-order commit and squash-all-younger
// guarantee it) — so entries never leave the ready list except by issuing
// or being squashed.

// allocUop returns a uop from the free pool, or a fresh one. Callers fully
// reinitialize it with a whole-struct assignment, so no clearing happens
// here.
func (c *CPU) allocUop() *uop {
	if n := len(c.uopPool); n > 0 {
		u := c.uopPool[n-1]
		c.uopPool = c.uopPool[:n-1]
		return u
	}
	return new(uop)
}

// freeUop returns a retired or squashed uop to the pool. The caller must
// have unlinked it from every machine structure first; its fields (notably
// `squashed`) stay readable until the pool recycles it at fetch.
func (c *CPU) freeUop(u *uop) {
	c.uopPool = append(c.uopPool, u)
}

// readySearch returns the position of seq in the ready list (or the
// insertion point keeping ascending order). Seqs are unique.
func (c *CPU) readySearch(seq uint64) int {
	lo, hi := 0, len(c.readyList)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.readyList[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// readyInsert adds u to the ready list, keeping ascending seq order so the
// select loop sees candidates oldest-first.
func (c *CPU) readyInsert(u *uop) {
	if u.inReady {
		return
	}
	u.inReady = true
	i := c.readySearch(u.seq)
	c.readyList = append(c.readyList, nil)
	copy(c.readyList[i+1:], c.readyList[i:])
	c.readyList[i] = u
}

// readyRemove drops u from the ready list (issue acceptance or squash).
func (c *CPU) readyRemove(u *uop) {
	if !u.inReady {
		return
	}
	u.inReady = false
	i := c.readySearch(u.seq)
	copy(c.readyList[i:], c.readyList[i+1:])
	c.readyList[len(c.readyList)-1] = nil
	c.readyList = c.readyList[:len(c.readyList)-1]
}

// linkWakeups registers a freshly dispatched issue-queue entry on the
// waiter lists of its not-yet-ready issue operands, or puts it straight on
// the ready list when none are pending. Split stores only need psrc1 (the
// address operand) to issue, mirroring eligible(); their data operand is
// delivered by the awaiting-data scan in writeback instead.
func (c *CPU) linkWakeups(u *uop) {
	if u.psrc1 >= 0 && !c.physReady[u.psrc1] {
		u.wait1 = u.psrc1
		u.waitCnt++
		c.regWaiters[u.psrc1] = append(c.regWaiters[u.psrc1], u)
	}
	if (c.cfg.FusedStores || !u.inst.Op.IsStore()) && u.psrc2 >= 0 && !c.physReady[u.psrc2] {
		u.wait2 = u.psrc2
		u.waitCnt++
		c.regWaiters[u.psrc2] = append(c.regWaiters[u.psrc2], u)
	}
	if u.waitCnt == 0 {
		c.readyInsert(u)
	}
}

// wake drains physical register p's waiter list after writeback marks it
// ready, moving consumers whose last pending operand this was onto the
// ready list. Entries whose wait fields no longer name p are stale
// registrations left behind by a squash (the uop was recycled); they are
// skipped. Stale entries can never fire wrongly: a recycled uop only has
// wait1/wait2 == p if its new incarnation also registered on p's list, in
// which case consuming either entry is equivalent — only the count matters.
func (c *CPU) wake(p int) {
	ws := c.regWaiters[p]
	if len(ws) == 0 {
		return
	}
	for i, u := range ws {
		ws[i] = nil
		switch p {
		case u.wait1:
			u.wait1 = -1
		case u.wait2:
			u.wait2 = -1
		default:
			continue // stale registration from a squashed former occupant
		}
		u.waitCnt--
		if u.waitCnt == 0 && u.iqIdx >= 0 {
			c.readyInsert(u)
		}
	}
	c.regWaiters[p] = ws[:0]
}

// truncWaiters empties physical register p's waiter list when p is
// re-allocated as a destination. Any entries present at that moment are
// stale: p could only have been freed once no live consumer remained, so
// everything still registered belongs to squashed uops.
func (c *CPU) truncWaiters(p int) {
	ws := c.regWaiters[p]
	for i := range ws {
		ws[i] = nil
	}
	c.regWaiters[p] = ws[:0]
}

// fqPush appends u to the fetch-queue ring. The caller checks capacity.
func (c *CPU) fqPush(u *uop) {
	c.fetchQ[ringWrap(c.fqHead+c.fqLen, c.fetchQCap)] = u
	c.fqLen++
}

// fqPop removes the oldest fetch-queue entry (which the caller holds).
func (c *CPU) fqPop() {
	c.fetchQ[c.fqHead] = nil
	c.fqHead = ringWrap(c.fqHead+1, c.fetchQCap)
	c.fqLen--
}

// fqFlush empties the fetch queue on a squash, returning every pending uop
// to the pool (nothing in the queue has been dispatched, so no other
// structure references them).
func (c *CPU) fqFlush() {
	for c.fqLen > 0 {
		u := c.fetchQ[c.fqHead]
		c.fqPop()
		c.freeUop(u)
	}
	c.fqHead = 0
}

// noteStoreDispatched maintains the SSBD watermark when a store enters the
// STQ: a newly dispatched store is the youngest, so it only becomes the
// watermark when no other unresolved store exists.
func (c *CPU) noteStoreDispatched(u *uop) {
	if c.unresolvedStoreSeq == 0 {
		c.unresolvedStoreSeq = u.seq
	}
}

// noteStoreResolved maintains the SSBD watermark when a store's address
// resolves at issue. Resolving a younger store leaves the oldest unresolved
// seq unchanged; resolving the watermark itself triggers an STQ rescan for
// the next oldest (the only remaining O(STQ) step, paid once per store
// rather than once per load-eligibility check).
func (c *CPU) noteStoreResolved(u *uop) {
	if u.seq != c.unresolvedStoreSeq {
		return
	}
	c.unresolvedStoreSeq = 0
	for _, st := range c.stq {
		if st == nil || st.addrReady {
			continue
		}
		if c.unresolvedStoreSeq == 0 || st.seq < c.unresolvedStoreSeq {
			c.unresolvedStoreSeq = st.seq
		}
	}
}

// noteSquash maintains the SSBD watermark after squashFrom: if the oldest
// unresolved store was itself squashed (seq >= fromSeq), every unresolved
// store was — they are all at least as young — so the watermark clears.
func (c *CPU) noteSquashWatermark(fromSeq uint64) {
	if c.unresolvedStoreSeq >= fromSeq {
		c.unresolvedStoreSeq = 0
	}
}
