package pipeline

import "conspec/internal/core"

// Fault-injection primitives: each perturbs exactly one microarchitectural
// fact the security mechanism depends on, picking its victim from the
// machine's current state with the caller-supplied selector n (so a seeded
// caller is deterministic). Every primitive returns whether it applied — a
// machine with no eligible victim this cycle reports false and the caller
// retries on a later cycle.
//
// Candidates are restricted to states where the corruption is *observable*:
// e.g. clearing the V bit of a load that never recorded its page would be
// indistinguishable from the load simply not having issued yet, so the V
// primitive only targets entries where the flip breaks an audited
// implication. That restriction is what lets the corpus test demand 100%
// detection — an injected-but-invisible fault would be a vacuous test.
//
// The primitives live in this package because they reach into private
// state; policy (which class, when, how often, seeding) lives in
// internal/faultinject.

// SetFaultHook installs fn to run once per cycle at the end of step(),
// after the stages and the secmatrix clock edge and immediately before the
// watchdog/self-check epilogue — so a same-cycle audit sweep sees the
// corruption before any stage logic can mask it. nil removes the hook; with
// no hook installed the cycle loop pays one nil check.
func (c *CPU) SetFaultHook(fn func(*CPU)) { c.faultHook = fn }

func (c *CPU) noteFault() {
	c.stats.Hardening.FaultsInjected++
}

// InjectSecMatrixBitFlip inverts one bit in the security dependence matrix
// row of a live memory instruction. Detected by the secmatrix row audit
// (the row no longer equals the recomputed set of live older producers).
func (c *CPU) InjectSecMatrixBitFlip(n int) bool {
	if c.secmat == nil || n < 0 {
		return false
	}
	rows := 0
	for _, u := range c.iq {
		if u != nil && u.class() == core.ClassMem {
			rows++
		}
	}
	if rows == 0 {
		return false
	}
	pick := n % rows
	for x, u := range c.iq {
		if u == nil || u.class() != core.ClassMem {
			continue
		}
		if pick > 0 {
			pick--
			continue
		}
		y := (n / rows) % c.secmat.Size()
		c.secmat.Flip(x, y)
		c.noteFault()
		return true
	}
	return false
}

// InjectSuspectClear clears suspect (S) bits in the TPBuf — the exact
// corruption that would let an S-Pattern assemble undetected. n >= 0 clears
// the n-th currently-set bit (one-shot; detected by the S-vs-uop audit);
// n < 0 clears every set bit, the persistent mode whose effect is only
// visible as an end-to-end secret leak in the attack harness.
func (c *CPU) InjectSuspectClear(n int) bool {
	if c.tpbuf == nil {
		return false
	}
	set := 0
	for i := 0; i < c.tpbuf.Size(); i++ {
		if _, _, _, s, _ := c.tpbuf.Entry(i); s {
			set++
		}
	}
	if set == 0 {
		return false
	}
	if n < 0 {
		for i := 0; i < c.tpbuf.Size(); i++ {
			if _, _, _, s, _ := c.tpbuf.Entry(i); s {
				c.tpbuf.CorruptBit(i, 'S')
				c.noteFault()
			}
		}
		return true
	}
	pick := n % set
	for i := 0; i < c.tpbuf.Size(); i++ {
		if _, _, _, s, _ := c.tpbuf.Entry(i); !s {
			continue
		}
		if pick > 0 {
			pick--
			continue
		}
		c.tpbuf.CorruptBit(i, 'S')
		c.noteFault()
		return true
	}
	return false
}

// InjectTPBufBit inverts one TPBuf status bit ('V', 'W', 'S') or the low
// page-tag bit ('P') on an entry where the flip is observable:
//
//	V: entries that are valid-and-issued (flip breaks issued ⇒ V) or
//	   invalid (flip breaks V ⇒ address-resolved / page-tag recompute);
//	W: any allocated entry (W is pinned to the occupant's completion);
//	S: issued occupants (S is pinned to the occupant's suspect flag);
//	P: valid entries (the tag is a pure function of the address).
func (c *CPU) InjectTPBufBit(n int, field byte) bool {
	if c.tpbuf == nil || n < 0 {
		return false
	}
	eligible := func(i int) bool {
		u := c.tpOccupant(i)
		if u == nil {
			return false
		}
		a, v, _, _, _ := c.tpbuf.Entry(i)
		if !a {
			return false
		}
		switch field {
		case 'V':
			return (v && u.issued) || !v
		case 'W':
			return true
		case 'S':
			return u.issued && !(i < c.cfg.LDQ && c.def.InvisibleLoads)
		case 'P':
			return v
		default:
			return false
		}
	}
	count := 0
	for i := 0; i < c.tpbuf.Size(); i++ {
		if eligible(i) {
			count++
		}
	}
	if count == 0 {
		return false
	}
	pick := n % count
	for i := 0; i < c.tpbuf.Size(); i++ {
		if !eligible(i) {
			continue
		}
		if pick > 0 {
			pick--
			continue
		}
		c.tpbuf.CorruptBit(i, field)
		c.noteFault()
		return true
	}
	return false
}

// InjectDropWakeup removes one pending wakeup registration from a physical
// register's waiter list: the consumer's waitCnt never reaches zero, so it
// sits in the issue queue forever. Detected by the ready-list audit
// (data-ready but absent) once the producer writes back, or — with
// self-checking off — by the forward-progress watchdog.
func (c *CPU) InjectDropWakeup(n int) bool {
	if n < 0 {
		return false
	}
	count := 0
	for p := range c.regWaiters {
		for _, u := range c.regWaiters[p] {
			if u != nil && (u.wait1 == p || u.wait2 == p) {
				count++
			}
		}
	}
	if count == 0 {
		return false
	}
	pick := n % count
	for p := range c.regWaiters {
		ws := c.regWaiters[p]
		for k, u := range ws {
			if u == nil || (u.wait1 != p && u.wait2 != p) {
				continue
			}
			if pick > 0 {
				pick--
				continue
			}
			copy(ws[k:], ws[k+1:])
			ws[len(ws)-1] = nil
			c.regWaiters[p] = ws[:len(ws)-1]
			c.noteFault()
			return true
		}
	}
	return false
}

// InjectLRUTouch applies a deferred LRU refresh early: loads that owe their
// replacement-state update at commit (§VII.A delayed update) get it now,
// while still speculative — re-opening the replacement-state side channel
// the delayed policy closes. n >= 0 touches the n-th owing load; n < 0
// touches all of them (persistent mode; only the attack harness's leak
// check can see it, since no invariant ties LRU age to the pipeline).
func (c *CPU) InjectLRUTouch(n int) bool {
	count := 0
	for _, u := range c.ldq {
		if u != nil && u.pendingTouch {
			count++
		}
	}
	if count == 0 {
		return false
	}
	if n < 0 {
		for _, u := range c.ldq {
			if u != nil && u.pendingTouch {
				c.hier.TouchL1D(u.memAddr)
				u.pendingTouch = false
				c.noteFault()
			}
		}
		return true
	}
	pick := n % count
	for _, u := range c.ldq {
		if u == nil || !u.pendingTouch {
			continue
		}
		if pick > 0 {
			pick--
			continue
		}
		c.hier.TouchL1D(u.memAddr)
		u.pendingTouch = false
		c.noteFault()
		return true
	}
	return false
}
