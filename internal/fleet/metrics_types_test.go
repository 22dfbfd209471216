package fleet

import (
	"strings"
	"testing"
)

// TestExpositionTypes: every metric family in both expositions has exactly
// one # TYPE line, ahead of its samples, and the type is counter exactly
// when the family's name ends in _total.
func TestExpositionTypes(t *testing.T) {
	for _, coordinator := range []bool{false, true} {
		typed := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(exposition(t, coordinator), "\n"), "\n") {
			if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, kind, _ := strings.Cut(decl, " ")
				if typed[name] {
					t.Errorf("coordinator=%v: second # TYPE line for %s", coordinator, name)
				}
				typed[name] = true
				want := "gauge"
				if strings.HasSuffix(name, "_total") {
					want = "counter"
				}
				if kind != want {
					t.Errorf("coordinator=%v: %s typed %s, want %s", coordinator, name, kind, want)
				}
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			name := line[:strings.IndexAny(line, "{ ")]
			if !typed[name] {
				t.Errorf("coordinator=%v: sample %q before its family's # TYPE line", coordinator, line)
			}
		}
	}
}
