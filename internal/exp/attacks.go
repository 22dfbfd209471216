package exp

import (
	"context"
	"fmt"
	"slices"

	"conspec/internal/attack"
	"conspec/internal/config"
	"conspec/internal/obs/trace"
	"conspec/internal/pipeline"
)

// attackKey identifies one attack verdict. A harness is a pure function of
// its scenario name and the core it is built for, and a run of it is
// deterministic, so the verdict is fixed by (scenario, core, security
// configuration).
type attackKey struct {
	scenario string
	cfg      config.Core
	sec      pipeline.SecurityConfig
}

// attackEntry is one memoized verdict, the attack counterpart of a
// cacheEntry.
type attackEntry struct {
	done chan struct{} // closed when out/err are final
	out  attack.Outcome
	err  error
}

// outcome returns the entry's verdict with Recovered and Secret copied, so
// no caller can change what a later hit returns.
func (e *attackEntry) outcome() (attack.Outcome, error) {
	o := e.out
	o.Recovered = slices.Clone(o.Recovered)
	o.Secret = slices.Clone(o.Secret)
	return o, e.err
}

// attack starts the named scenario on the attack machine cfg under sec, or
// recalls its verdict, and returns a function that waits for the outcome.
// Verdicts are memoized like runs: the first request owns an entry and
// runs the attack on its own goroutine, which takes a worker slot first so
// the attack counts against the pool like any simulation; identical
// requests while it is in flight wait on the same entry, later ones are
// memory hits. A verdict whose ctx ended before it got a slot is not
// memoized, so a later request runs it again. Waiting on an entry the
// caller owns joins its goroutine; waiting on any other entry also ends
// with ctx. Verdicts are not counted in Stats, which counts RunSpec runs,
// and are not written to the persistent store.
func (r *Runner) attack(ctx context.Context, suite SuiteID, scenario string, cfg config.Core, sec pipeline.SecurityConfig) func() (attack.Outcome, error) {
	key := attackKey{scenario, cfg, sec}
	r.mu.Lock()
	e, hit := r.attacks[key]
	if !hit {
		e = &attackEntry{done: make(chan struct{})}
		r.attacks[key] = e
	}
	r.mu.Unlock()
	if !hit {
		go r.runAttack(ctx, suite, key, e)
		return func() (attack.Outcome, error) {
			<-e.done
			return e.outcome()
		}
	}
	sp := r.beginAttackSpan(suite, key)
	r.trace.Annotate(sp, "cache", "hit")
	r.trace.Annotate(sp, "tier", TierMemory)
	r.trace.End(sp)
	return func() (attack.Outcome, error) {
		select {
		case <-e.done:
			return e.outcome()
		case <-ctx.Done():
			return attack.Outcome{}, ctx.Err()
		}
	}
}

// runAttack fills an owned attack entry. A failure — ctx ended before a
// slot came free, an unknown scenario, a panicking harness — leaves the
// memo map, so a later request retries.
func (r *Runner) runAttack(ctx context.Context, suite SuiteID, key attackKey, e *attackEntry) {
	e.out, e.err = r.execAttack(ctx, suite, key)
	if e.err != nil {
		r.mu.Lock()
		delete(r.attacks, key)
		r.mu.Unlock()
	}
	close(e.done)
}

// execAttack runs one attack under a worker slot, isolating a panic into an
// error.
func (r *Runner) execAttack(ctx context.Context, suite SuiteID, key attackKey) (o attack.Outcome, err error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return attack.Outcome{}, ctx.Err()
	}
	defer func() { <-r.sem }()
	sp := r.beginAttackSpan(suite, key)
	defer func() {
		if err != nil {
			r.trace.Annotate(sp, "error", err.Error())
		}
		r.trace.End(sp)
	}()
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("exp: attack %s / %s panicked: %v", key.scenario, mechLabel(RunSpec{Sec: key.sec}), rec)
		}
	}()
	h, ok := attack.ByName(key.cfg, key.scenario)
	if !ok {
		return attack.Outcome{}, fmt.Errorf("exp: unknown attack scenario %q", key.scenario)
	}
	if r.testAttack != nil {
		return r.testAttack(h, key.cfg, key.sec), nil
	}
	return h.Run(key.cfg, key.sec), nil
}

// beginAttackSpan opens an attack request's span under the suite span,
// annotated with the scenario and the mechanism's title.
func (r *Runner) beginAttackSpan(suite SuiteID, key attackKey) trace.SpanID {
	if r.trace == nil {
		return trace.NoSpan
	}
	sp := r.trace.Begin(r.suiteSpan(suite), "attack")
	r.trace.Annotate(sp, "scenario", key.scenario)
	r.trace.Annotate(sp, "mechanism", mechLabel(RunSpec{Sec: key.sec}))
	return sp
}
