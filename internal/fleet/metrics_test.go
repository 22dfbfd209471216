package fleet

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conspec/internal/diskcache"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/serve"
	"conspec/internal/serve/journal"
)

// The service tier's GET /metrics, pinned in both of its shapes: a
// standalone server, and the same server behind a coordinator. The fleet
// package is the one that can build both.

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// statsExec finishes every job at once with fixed engine stats.
type statsExec struct{ stats exp.Stats }

func (e statsExec) Execute(context.Context, serve.ExecJob) (*report.Report, exp.Stats, int, error) {
	return report.New(), e.stats, 0, nil
}

// pushedMetrics is what each test worker's heartbeat pushes: w1's
// counters, and w2's, which share every name, so a two-worker exposition
// shows each worker family with two samples.
var pushedMetrics = map[string]map[string]uint64{
	"w1": {
		"active_leases":           1,
		"cache_hits_local_total":  5,
		"cache_hits_remote_total": 2,
		"leases_done_total":       4,
		"runs_executed_total":     9,
	},
	"w2": {
		"active_leases":           2,
		"cache_hits_local_total":  1,
		"cache_hits_remote_total": 6,
		"leases_done_total":       3,
		"runs_executed_total":     8,
	},
}

// exposition runs one lru job through a server over a disk cache and a
// journal and returns its /metrics text once the job is counted. With
// workers > 0 the server sits behind a coordinator's handler that has that
// many workers, w1 then w2, whose heartbeats pushed counters.
func exposition(t *testing.T, workers int) string {
	t.Helper()
	store, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	jr, _, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jr.Close() })
	s := serve.New(serve.Config{Workers: 1, Cache: store, Journal: jr, Executor: statsExec{exp.Stats{
		Executed: 3, Hits: 2, DiskHits: 1, SkippedCycles: 12345, SkipSpans: 67,
	}}})
	t.Cleanup(s.Close)
	h := s.Handler()
	if workers > 0 {
		c := newTestCoordinator(t, CoordinatorOptions{})
		for _, w := range []string{"w1", "w2"}[:workers] {
			mustRegister(t, c, w, 2)
			if _, err := c.heartbeat(HeartbeatRequest{Worker: w, Metrics: pushedMetrics[w]}); err != nil {
				t.Fatal(err)
			}
		}
		h = c.Handler(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"suite":"lru"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if text := string(b); strings.Contains(text, "conspec_served_jobs_done_total 1\n") {
			return text
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never counted as done:\n%s", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// samples keeps the exposition's sample lines, in order, with the values
// that depend on the build or on random job IDs masked.
func samples(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "conspec_build_info{"):
			line = "conspec_build_info{MASKED}" + line[strings.LastIndex(line, "}")+1:]
		case strings.HasPrefix(line, "conspec_served_journal_wal_bytes "):
			line = "conspec_served_journal_wal_bytes MASKED"
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// TestExpositionGolden pins every sample line of the expositions and their
// order: standalone, and behind a coordinator with one and two workers.
func TestExpositionGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"metrics_standalone.txt", 0},
		{"metrics_coordinator.txt", 1},
		{"metrics_coordinator_2workers.txt", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := samples(exposition(t, tc.workers))
			path := filepath.Join("testdata", tc.name)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("samples differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
