package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/peernet"
	"repro/internal/resultstore"
)

func journalLine(t *testing.T, id string, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(resultstore.Record{
		ID: id, Workload: "fft", Kit: "lockfree", Threads: 2, Scale: "test",
		Seed: seed, Reps: 3, Node: "origin", Status: "ok",
		TimesNS: []int64{100, 110, 120}, MeanNS: 110,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestIngestBuffersTornTrailingLine(t *testing.T) {
	p := &peer{id: "origin", replica: resultstore.NewIndex()}
	line := journalLine(t, "r-origin-1", 1)
	cut := len(line) / 2

	p.ingest(line[:cut])
	if n := p.replica.Len(); n != 0 {
		t.Fatalf("replica holds %d records from half a line", n)
	}
	p.ingest(line[cut:])
	if n := p.replica.Len(); n != 1 {
		t.Fatalf("replica holds %d records after the line completed, want 1", n)
	}
	if _, ok := p.replica.ByID("r-origin-1"); !ok {
		t.Fatal("completed record not indexed by ID")
	}
	if got := p.skipped.Load(); got != 0 {
		t.Fatalf("skipped %d lines in a clean ship", got)
	}
}

func TestIngestSkipsTornFragmentLikeOriginReplay(t *testing.T) {
	p := &peer{id: "origin", replica: resultstore.NewIndex()}
	good := journalLine(t, "r-origin-2", 2)
	// A write fault tore a line: its tail glued onto the next good line's
	// start is undecodable and must be skipped — the origin's own
	// replay-on-open does the same, so both sides converge.
	torn := []byte(`{"id":"r-origin-1","workload":"f`)
	p.ingest(append(append(torn, '\n'), good...))

	if n := p.replica.Len(); n != 1 {
		t.Fatalf("replica holds %d records, want just the good line", n)
	}
	if got := p.skipped.Load(); got != 1 {
		t.Fatalf("skipped %d lines, want 1", got)
	}
	if _, ok := p.replica.ByID("r-origin-2"); !ok {
		t.Fatal("good record lost alongside the torn one")
	}
}

// fakeJournal serves an append-only journal byte range the way the peer
// API does: raw bytes from ?offset, clamped to the durable watermark.
type fakeJournal struct {
	mu      sync.Mutex
	data    []byte
	offsets []int64 // offsets requested, in order
}

func (f *fakeJournal) append(b []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = append(f.data, b...)
}

func (f *fakeJournal) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		off, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
		f.mu.Lock()
		defer f.mu.Unlock()
		f.offsets = append(f.offsets, off)
		w.Header().Set(journalSizeHeader, fmt.Sprint(len(f.data)))
		if off > int64(len(f.data)) {
			off = int64(len(f.data))
		}
		w.Write(f.data[off:])
	})
}

func shippingCluster(t *testing.T) *Cluster {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &Cluster{
		cfg:       Config{Self: "follower", Logf: t.Logf},
		transport: peernet.NewHTTPTransport(5 * time.Second),
		ctx:       ctx,
	}
}

// testPeer builds a peer wired for direct c.call use: breaker at the
// package window and a 2s cooldown, replica empty.
func testPeer(id, base string) *peer {
	return &peer{
		id: id, base: base, replica: resultstore.NewIndex(),
		brk: newBreaker(breakerWindow, breakerMinSamples, 2*time.Second),
	}
}

func TestShipResumesFromOffsetAcrossOriginRestart(t *testing.T) {
	journal := &fakeJournal{}
	first := journalLine(t, "r-origin-1", 1)
	journal.append(first)
	ts := httptest.NewServer(journal.handler())
	p := testPeer("origin", ts.URL)
	c := shippingCluster(t)

	if _, err := c.fetchJournal(p); err != nil {
		t.Fatal(err)
	}
	if got := p.offset.Load(); got != int64(len(first)) {
		t.Fatalf("offset %d after first ship, want %d", got, len(first))
	}
	if lag := p.shipLag(); lag != 0 {
		t.Fatalf("lag %d on a caught-up follower", lag)
	}

	// Origin "crashes": its server goes away mid-ship. The follower's next
	// round errors but keeps its offset.
	ts.Close()
	if _, err := c.fetchJournal(p); err == nil {
		t.Fatal("shipping from a dead origin did not error")
	}
	if got := p.offset.Load(); got != int64(len(first)) {
		t.Fatalf("offset moved to %d across a failed ship", got)
	}

	// Origin restarts with the same journal plus one more line (same
	// listener address is not required — the follower just needs the same
	// byte stream). The resumed ship must ask for exactly the old offset
	// and ingest only the new line.
	second := journalLine(t, "r-origin-2", 2)
	journal.append(second)
	ts2 := httptest.NewServer(journal.handler())
	defer ts2.Close()
	p.base = ts2.URL
	journal.mu.Lock()
	journal.offsets = nil
	journal.mu.Unlock()

	if _, err := c.fetchJournal(p); err != nil {
		t.Fatal(err)
	}
	journal.mu.Lock()
	asked := append([]int64(nil), journal.offsets...)
	journal.mu.Unlock()
	if len(asked) != 1 || asked[0] != int64(len(first)) {
		t.Fatalf("resumed ship asked offsets %v, want exactly [%d]", asked, len(first))
	}
	if got := p.offset.Load(); got != int64(len(first)+len(second)) {
		t.Fatalf("offset %d after resume, want %d", got, len(first)+len(second))
	}
	if n := p.replica.Len(); n != 2 {
		t.Fatalf("replica holds %d records after resume, want 2", n)
	}
	for _, id := range []string{"r-origin-1", "r-origin-2"} {
		if _, ok := p.replica.ByID(id); !ok {
			t.Errorf("record %s missing after resume", id)
		}
	}
	if got := p.skipped.Load(); got != 0 {
		t.Fatalf("skipped %d lines across a clean resume", got)
	}
}
