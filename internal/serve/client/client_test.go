package client

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"conspec/internal/serve"
)

// startServer runs a real serve.Server with a tiny real-simulation budget.
func startServer(t *testing.T) *Client {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return New(ts.URL)
}

func tinySpec() serve.JobSpec {
	return serve.JobSpec{Suite: "lru", Benches: []string{"astar"}, Warmup: 2000, Measure: 8000}
}

func TestClientSubmitWatchGet(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	c := startServer(t)
	ctx := context.Background()

	st, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The 202 snapshot is taken after the job is queued, so a worker may
	// already have picked it up (or finished it); the state to wait for is
	// the terminal one Watch delivers below.
	switch st.Status {
	case serve.StatusQueued, serve.StatusRunning, serve.StatusDone:
	default:
		t.Fatalf("submit returned %+v", st)
	}
	if st.ID == "" {
		t.Fatalf("submit returned %+v", st)
	}

	var sawProgress, sawTerminal bool
	err = c.Watch(ctx, st.ID, func(ev serve.Event) error {
		if ev.Type == "progress" {
			sawProgress = true
		}
		if ev.Terminal() {
			sawTerminal = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if !sawProgress || !sawTerminal {
		t.Fatalf("watch saw progress=%v terminal=%v", sawProgress, sawTerminal)
	}

	done, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if done.Status != serve.StatusDone || done.Result == nil || done.Result.LRU == nil {
		t.Fatalf("final job %+v missing lru result", done.Status)
	}

	jobs, err := c.List(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID || jobs[0].Result != nil {
		t.Fatalf("list returned %+v", jobs)
	}

	// The done counter is bumped after the terminal event is published:
	// wait for it rather than expect it at once.
	deadline := time.Now().Add(10 * time.Second)
	for {
		metrics, err := c.Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if strings.Contains(metrics, "conspec_served_jobs_done_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics missing done counter:\n%s", metrics)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClientErrors(t *testing.T) {
	c := startServer(t)
	ctx := context.Background()

	if _, err := c.Get(ctx, "jdeadbeef0000"); err == nil {
		t.Fatal("get of unknown job succeeded")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != 404 {
		t.Fatalf("get err %v, want 404 APIError", err)
	}

	if _, err := c.Submit(ctx, serve.JobSpec{Suite: "nope"}); err == nil {
		t.Fatal("bad suite accepted")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != 400 || apiErr.IsRetryable() {
		t.Fatalf("submit err %v, want non-retryable 400", err)
	}
}
