package exp

import (
	"reflect"
	"testing"

	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// TestRunWorkloadUnaffectedByStallSkip drives the full exp path — warmup,
// stat reset, chunked runPhase (so fast-forward interacts with the 1<<16
// chunk boundaries), metrics sampling — with the stall skipper on and off,
// for a defense with heavy stall content and for the unprotected machine.
// The Results must be interchangeable modulo the skip meta-counters, which
// is what makes memoized cache entries (keyed on inputs only) valid across
// both configurations.
func TestRunWorkloadUnaffectedByStallSkip(t *testing.T) {
	noSkip := func(cpu *pipeline.CPU) { cpu.SetStallSkip(false) }
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	w := workload.MustGenerate(p)
	for _, name := range []string{"origin", "cachehit"} {
		d, err := core.LookupDefense(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := fastSpec()
		spec.Sec = SecFor(d)
		spec.MetricsInterval = 1024

		fast := RunWorkload(w, spec)
		slow := RunWorkloadWith(w, spec, noSkip)

		if slow.Stages.SkipSpans != 0 || slow.Stages.SkippedCycles != 0 {
			t.Fatalf("%s: skip-disabled run recorded skips: %+v", name, slow.Stages)
		}
		masked := fast
		masked.Stages.SkippedCycles = 0
		masked.Stages.SkipSpans = 0
		if !reflect.DeepEqual(masked, slow) {
			t.Errorf("%s: Result diverged under skip:\n  skip   %+v\n  noskip %+v",
				name, masked, slow)
		}
	}
}
