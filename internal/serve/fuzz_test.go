package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nvmap/internal/vtime"
)

// fuzzConfig is a deliberately tiny server: small partitions, a short
// wall deadline and small virtual-time and allocation quotas, so any
// accepted request finishes (or is cut) quickly.
func fuzzConfig() Config {
	return Config{
		MaxConcurrent:   1,
		MaxNodes:        4,
		MaxWorkers:      2,
		DefaultDeadline: 200 * time.Millisecond,
		DefaultQuota: TenantQuota{
			MaxVirtualTime: 2 * vtime.Millisecond,
			MaxAllocBytes:  1 << 20,
		},
	}
}

// FuzzSessionRequest posts raw body bytes to /v1/sessions on a fresh
// server. Every input must end one of two ways: a rejection whose body
// is exactly one error Event, or a 200 NDJSON stream that opens with
// "admitted" and ends in a terminal "done" or "error" event. Afterwards
// the /v1/stats ledger must show exactly one outcome, nothing in
// flight or queued, and every tenant's session claim released.
func FuzzSessionRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s := NewServer(fuzzConfig())
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))

		status, terminal := rec.Code, ""
		switch {
		case status == http.StatusOK:
			terminal = checkStream(t, rec)
		case status >= 400 && status < 500, status == http.StatusServiceUnavailable:
			checkRejection(t, rec)
		default:
			t.Fatalf("status %d, body %q", status, rec.Body.String())
		}

		srec := httptest.NewRecorder()
		h.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st statsPayload
		if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
			t.Fatalf("stats: %v (%q)", err, srec.Body.String())
		}
		checkLedger(t, status, terminal, st)
	})
}

// checkStream: a 200 response is NDJSON that opens with "admitted" and
// ends in exactly one terminal event, whose kind it returns.
func checkStream(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("200 with Content-Type %q", ct)
	}
	var events []Event
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 {
		t.Fatalf("200 stream has %d events: %q", len(events), rec.Body.String())
	}
	if events[0].Event != "admitted" || events[0].Admitted == nil {
		t.Fatalf("stream opens with %+v", events[0])
	}
	last := events[len(events)-1]
	switch {
	case last.Event == "done" && last.Done != nil:
	case last.Event == "error" && last.Error != nil:
	default:
		t.Fatalf("stream ends with %+v, want a terminal done/error event", last)
	}
	for _, ev := range events[1 : len(events)-1] {
		if ev.Event == "admitted" || ev.Event == "done" {
			t.Fatalf("%q event mid-stream", ev.Event)
		}
	}
	return last.Event
}

// checkRejection: the whole body is one JSON error Event.
func checkRejection(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	dec := json.NewDecoder(rec.Body)
	var ev Event
	if err := dec.Decode(&ev); err != nil {
		t.Fatalf("status %d body is not an Event: %v", rec.Code, err)
	}
	if ev.Event != "error" || ev.Error == nil || ev.Error.Kind == "" {
		t.Fatalf("status %d body %+v, want one error event", rec.Code, ev)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("status %d body has content after the error event", rec.Code)
	}
}

// checkLedger: one request is exactly one outcome, and nothing stays
// claimed once the handler has returned.
func checkLedger(t *testing.T, status int, terminal string, st statsPayload) {
	t.Helper()
	c := st.Counters
	outcomes := c.Completed + c.Failed + c.BadRequests + c.RejectedBusy + c.RejectedQuota + c.RejectedDraining
	if outcomes != 1 || c.Panics != 0 || c.Admitted > 1 || c.Cut > c.Failed || c.Shed > c.Admitted {
		t.Fatalf("status %d: counters do not balance: %+v", status, c)
	}
	if status == http.StatusOK {
		if c.Admitted != 1 || (c.Completed == 1) != (terminal == "done") {
			t.Fatalf("200 stream ending in %q with counters %+v", terminal, c)
		}
	} else if c.Completed != 0 || c.Failed != 0 {
		t.Fatalf("status %d with a run outcome: %+v", status, c)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("inflight %d, queued %d after the handler returned", st.Inflight, st.Queued)
	}
	for name, u := range st.Tenants {
		if u.Active != 0 {
			t.Fatalf("tenant %q still holds %d session claims", name, u.Active)
		}
	}
}
