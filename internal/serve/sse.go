package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cmosopt/internal/obs"
)

// handleEvents streams a job's progress as server-sent events. Each
// "progress" event carries the span-tree entries that are new or advanced
// since the previous event (obs.DiffFlat over flattened snapshots), so a
// client watching a million-gate sweep sees phases light up as the
// optimizer reaches them. A final "done" event carries the terminal
// JobStatus, then the stream closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, &apiError{status: http.StatusNotFound, msg: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &apiError{status: http.StatusInternalServerError, msg: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// A ticker paces the snapshot polls; the snapshots themselves carry no
	// wall-clock reads of ours — durations come from the obs layer.
	tick := time.NewTicker(s.cfg.ProgressInterval)
	defer tick.Stop()

	var prev []obs.FlatSpan
	emit := func() {
		cur := j.progress()
		if delta := obs.DiffFlat(prev, cur); len(delta) > 0 {
			writeEvent(w, "progress", delta)
			fl.Flush()
		}
		prev = cur
	}
	for {
		select {
		case <-j.done:
			emit() // the final spans, so totals are never lost to timing
			writeDone(w, j)
			fl.Flush()
			return
		case <-r.Context().Done():
			return // viewer hung up; the job itself is unaffected
		case <-tick.C:
			emit()
		}
	}
}

// writeEvent renders one SSE frame. Payloads are single-line JSON, so the
// data field never needs splitting.
func writeEvent(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", "marshal: "+err.Error()))
	}
	writeFrame(w, event, b)
}

func writeFrame(w io.Writer, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// writeDone renders the "done" frame: j's status as json.Marshal encodes it
// with the job's Result in it, spliced by statusJSON as a status response is.
func writeDone(w io.Writer, j *job) {
	st, res := j.envelope()
	if res == nil {
		writeEvent(w, "done", st)
		return
	}
	writeFrame(w, "done", statusJSON(st, res))
}
