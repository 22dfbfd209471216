package fleet

import (
	"strings"
	"testing"
)

// TestExpositionTypes: every metric family in the expositions (standalone,
// and behind a coordinator with one and two workers) has exactly one # TYPE
// line, ahead of its samples, the type is counter exactly when the
// family's name ends in _total, and a family's samples are contiguous, as
// the text format requires.
func TestExpositionTypes(t *testing.T) {
	for workers := 0; workers <= 2; workers++ {
		typed := map[string]bool{}
		closed := map[string]bool{} // families whose run of samples has ended
		last := ""
		for _, line := range strings.Split(strings.TrimSuffix(exposition(t, workers), "\n"), "\n") {
			if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, kind, _ := strings.Cut(decl, " ")
				if typed[name] {
					t.Errorf("workers=%d: second # TYPE line for %s", workers, name)
				}
				typed[name] = true
				want := "gauge"
				if strings.HasSuffix(name, "_total") {
					want = "counter"
				}
				if kind != want {
					t.Errorf("workers=%d: %s typed %s, want %s", workers, name, kind, want)
				}
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			name := line[:strings.IndexAny(line, "{ ")]
			if !typed[name] {
				t.Errorf("workers=%d: sample %q before its family's # TYPE line", workers, line)
			}
			if name != last {
				if closed[name] {
					t.Errorf("workers=%d: sample %q after another family's samples; %s is split", workers, line, name)
				}
				closed[last] = true
				last = name
			}
		}
	}
}
