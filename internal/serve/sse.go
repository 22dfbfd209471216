package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// defaultSSEKeepalive is how often an idle event stream emits a comment
// frame so intermediaries don't drop the connection (Config.SSEKeepalive
// overrides it).
const defaultSSEKeepalive = 15 * time.Second

// handleEvents streams a job's events as Server-Sent Events: first the full
// history (a late subscriber misses nothing), then live frames until the
// terminal state frame, after which the stream ends. Each frame is
//
//	event: state|progress
//	data: <Event JSON>
//
// Closing the request (client disconnect) unsubscribes; if the job asked
// for cancel_on_disconnect and this was its last watcher, it is canceled.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	unsub := j.subscribe()
	defer unsub()

	keepalive := time.NewTicker(s.cfg.SSEKeepalive)
	defer keepalive.Stop()
	for next := 0; ; {
		evs, wake := j.eventsFrom(next)
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return
			}
			if ev.Terminal() {
				fl.Flush()
				return
			}
		}
		if len(evs) > 0 {
			next += len(evs)
			fl.Flush()
			continue
		}
		select {
		case <-wake:
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one SSE frame.
func writeSSE(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}
