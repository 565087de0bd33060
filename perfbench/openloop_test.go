package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A server that takes 40 ms per request, fed four requests all due at
// once over two connections: the last two wait for a sender, and the
// wait shows in both their latency (timed from the due time) and the
// generator's lateness.
func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{"result":{}}`)) //nolint:errcheck // test server
	}))
	defer srv.Close()
	transport := &http.Transport{MaxConnsPerHost: senders}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	reqs := make([]serveReq, 4)
	for i := range reqs {
		reqs[i].body = requestBody(serveKey{Trace: "t", Org: orgs[0], Ins: uint64(i)})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	outs := drive(ctx, client, srv.URL, reqs, nil)

	var lates, lats []float64
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, o.status, o.err)
		}
		if o.latency < service {
			t.Errorf("request %d: latency %v below the service time", i, o.latency)
		}
		lates = append(lates, ms(o.late))
		lats = append(lats, ms(o.latency))
	}
	if p := percentile(lats, 1); p < ms(2*service) {
		t.Errorf("slowest latency %.1f ms; the queued requests must count their wait for a sender (>= %.0f ms)", p, ms(2*service))
	}
	if p := percentile(lates, 1); p < ms(service) {
		t.Errorf("generator lateness %.1f ms; two requests waited a full service time", p)
	}
	if p := percentile(lates, 0.5); p > ms(service) {
		t.Errorf("median lateness %.1f ms; the first two requests went out on time", p)
	}
}

func TestScheduleRepeatsAnsweredKeys(t *testing.T) {
	const n = 2000
	reqs := serveSchedule(3, n, []string{"a", "b", "c", "d"})
	first := map[serveKey]int{}
	repeats := 0
	for i, q := range reqs {
		if want := time.Duration(float64(i) / serveRate * float64(time.Second)); q.due != want {
			t.Fatalf("request %d due at %v, want %v", i, q.due, want)
		}
		j, seen := first[q.key]
		switch {
		case q.fresh && seen:
			t.Fatalf("request %d: fresh key %v was already issued", i, q.key)
		case !q.fresh && !seen:
			t.Fatalf("request %d: repeat of a key never issued", i)
		case !q.fresh && i-j < repeatLag:
			t.Fatalf("request %d repeats request %d, less than %d earlier", i, j, repeatLag)
		case !q.fresh:
			repeats++
		default:
			first[q.key] = i
		}
	}
	if share := float64(repeats) / n; share < 0.38 || share > 0.42 {
		t.Errorf("repeat share %.2f, want two in five", share)
	}
	again := serveSchedule(3, n, []string{"a", "b", "c", "d"})
	for i := range reqs {
		if reqs[i].key != again[i].key {
			t.Fatalf("seed 3 scheduled request %d differently twice", i)
		}
	}
}
