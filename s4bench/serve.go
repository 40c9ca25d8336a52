package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/resultstore"
	"repro/internal/server"
)

// The service probe: an in-process splash4d on loopback HTTP takes one
// pass of the roster's test-scale specs from one closed-loop submitting
// connection while a second closed-loop connection reads /compare and
// /runs/{id} beside it.

// Service job shape: test-scale specs under both kits.
const (
	jobReps   = 5
	jobWarmup = 1
)

// serveEnv is one in-process splash4d serving its HTTP API on loopback.
type serveEnv struct {
	store  *resultstore.Store
	srv    *server.Server
	http   *http.Server
	served chan error
	url    string
}

// startServe opens a SyncAlways journal, starts a one-worker server on it
// and returns once GET /readyz answers 200.
func startServe(journal string) (*serveEnv, error) {
	store, err := resultstore.OpenWithOptions(journal, resultstore.Options{Sync: resultstore.SyncAlways})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Store: store, Workers: 1})
	if err != nil {
		store.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		store.Close()
		return nil, err
	}
	e := &serveEnv{
		store: store, srv: srv, http: &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1), url: "http://" + ln.Addr().String(),
	}
	go func() { e.served <- e.http.Serve(ln) }()
	c := newClient()
	defer c.close()
	if code, err := c.get(e.url+"/readyz", nil); err != nil || code != http.StatusOK {
		return e, errors.Join(fmt.Errorf("splash4d not ready: status %d: %v", code, err), e.stop())
	}
	return e, nil
}

// stop drains the server, shuts the listener down, waits for it to exit and
// closes the journal.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drainErr := e.srv.Drain(ctx)
	shutErr := e.http.Shutdown(ctx)
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	return errors.Join(drainErr, shutErr, e.store.Close())
}

// jobStream is the seeded pass of specs the submitter sends: a seeded
// permutation of every (workload, kit) cell, each spec with its own seed so
// no submission is deduplicated. It also keeps the ledger of submitted and
// completed jobs the reads are checked against.
type jobStream struct {
	members []member
	seed    int64

	mu        sync.Mutex
	submitted map[string]int
	done      map[string]int
	doneIDs   []string
}

func newJobStream(members []member, seed int64) *jobStream {
	return &jobStream{members: members, seed: seed, submitted: make(map[string]int), done: make(map[string]int)}
}

func (st *jobStream) cells() int64 { return int64(2 * len(st.members)) }

// spec returns the i-th spec of the pass.
func (st *jobStream) spec(i int64) server.Spec {
	c := rand.New(rand.NewPCG(uint64(st.seed), 0)).Perm(int(st.cells()))[i]
	return server.Spec{
		Workload: st.members[c/2].name, Kit: kits[c%2].Name(), Threads: threads,
		Scale: "test", Seed: mix(st.seed, 1<<32+uint64(i)), Reps: jobReps, Warmup: jobWarmup,
	}
}

// jobSample is one job as the submitter saw it.
type jobSample struct {
	Index     int64   `json:"i"`
	Cell      string  `json:"cell"`
	LatencyMS float64 `json:"latency_ms"`
	Failed    bool    `json:"failed,omitempty"`
	end       time.Time
	// id and span name the finished job on the server and its span.
	id   string
	span int64
}

// serviceRun is what one pass of the service probe measured.
type serviceRun struct {
	Jobs  []jobSample `json:"jobs"`
	Reads []float64   `json:"read_ms"`
	mu    sync.Mutex
}

// servicePass submits every spec of st once, each after the last one has
// ended, while a reading connection runs beside the submitter, and returns
// once both have finished. The job views the pipeline spans need are
// fetched after the pass, so they do not load the pipeline they time.
func servicePass(b *bench, env *serveEnv, st *jobStream, tr *tracer) *serviceRun {
	r := &serviceRun{}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		cl := newClient()
		defer cl.close()
		cl.readLoop(b, env, st, r, stop)
	}()
	cl := newClient()
	defer cl.close()
	for i := int64(0); i < st.cells(); i++ {
		cl.job(b, env, st, r, i, tr)
	}
	close(stop)
	reader.Wait()
	cl.phaseSpans(b, env, r, tr)
	return r
}

// phaseSpans reads back the view of every job the pass finished and
// records the server's pipeline phases as spans under the job's span.
func (c *client) phaseSpans(b *bench, env *serveEnv, r *serviceRun, tr *tracer) {
	for _, j := range r.Jobs {
		if j.Failed {
			continue
		}
		v, ok := c.readRun(b, env, j.id)
		if !ok {
			continue
		}
		tr.add(tr.id(), j.span, "queue", j.Cell, v.Submitted, v.Started)
		tr.add(tr.id(), j.span, "exec", j.Cell, v.Started, v.Finished)
		tr.add(tr.id(), j.span, "notify", j.Cell, v.Finished, j.end)
	}
}

// serviceLayers sets the service pipeline's per-layer metrics from the
// probe's job spans.
func (b *bench) serviceLayers() {
	for _, name := range []string{"admit", "queue", "notify"} {
		var pooled []float64
		for _, xs := range b.spans.byAttr(name) {
			pooled = append(pooled, xs...)
		}
		b.metrics[name+"_ms"] = median(pooled)
	}
}

// client is one HTTP connection to splash4d: the transport allows a single
// connection, so every request of one client reuses it.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and decodes a JSON response body into out (when
// non-nil), returning the status code.
func (c *client) do(method, u string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, u, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *client) get(u string, out any) (int, error) { return c.do(http.MethodGet, u, nil, out) }

// jobView is the part of GET /runs/{id} the benchmark reads.
type jobView struct {
	ID        string    `json:"id"`
	Status    string    `json:"status"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Result    *struct {
		TimesNS []int64 `json:"times_ns"`
	} `json:"result"`
}

// sseEvent is one decoded event of GET /runs/{id}/events.
type sseEvent struct {
	Type string `json:"type"`
	Data struct {
		TimesNS []int64 `json:"times_ns"`
		Error   string  `json:"error"`
	} `json:"data"`
}

// awaitTerminal follows the job's event stream to its done or error event.
func (c *client) awaitTerminal(base, id string) (sseEvent, error) {
	var ev sseEvent
	resp, err := c.hc.Get(base + "/runs/" + url.PathEscape(id) + "/events")
	if err != nil {
		return ev, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		ev = sseEvent{}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return ev, fmt.Errorf("decoding event: %w", err)
		}
		if ev.Type == "done" || ev.Type == "error" {
			_, err := io.Copy(io.Discard, resp.Body)
			return ev, err
		}
	}
	if err := sc.Err(); err != nil {
		return ev, err
	}
	return ev, fmt.Errorf("event stream ended before a terminal event")
}

// job submits the stream's i-th spec, waits for its terminal event and
// records it.
func (c *client) job(b *bench, env *serveEnv, st *jobStream, r *serviceRun, i int64, tr *tracer) {
	sp := st.spec(i)
	cell := cellKey(sp.Workload, sp.Kit)
	st.mu.Lock()
	st.submitted[cell]++
	st.mu.Unlock()
	body, err := json.Marshal(sp)
	if err != nil {
		b.fail("encoding spec: %v", err)
		return
	}
	js := jobSample{Index: i, Cell: cell, Failed: true, span: tr.id()}
	submit := time.Now()
	defer func() {
		if js.end.IsZero() {
			js.end = time.Now()
		}
		js.LatencyMS = ms(js.end.Sub(submit))
		r.mu.Lock()
		r.Jobs = append(r.Jobs, js)
		r.mu.Unlock()
	}()
	var admitted jobView
	code, err := c.do(http.MethodPost, env.url+"/runs", body, &admitted)
	admitEnd := time.Now()
	tr.add(tr.id(), js.span, "admit", cell, submit, admitEnd)
	if err != nil || code != http.StatusAccepted {
		b.fail("job %d (%s): submit: status %d: %v", i, cell, code, err)
		return
	}
	ev, err := c.awaitTerminal(env.url, admitted.ID)
	js.end = time.Now()
	tr.add(js.span, 0, "job", cell, submit, js.end)
	switch {
	case err != nil:
		b.fail("job %s (%s): %v", admitted.ID, cell, err)
		return
	case ev.Type != "done":
		b.fail("job %s (%s) ended %s: %s", admitted.ID, cell, ev.Type, ev.Data.Error)
		return
	case len(ev.Data.TimesNS) != jobReps:
		b.fail("job %s (%s): %d rep times, want %d", admitted.ID, cell, len(ev.Data.TimesNS), jobReps)
		return
	}
	b.ok()
	js.Failed, js.id = false, admitted.ID
	st.mu.Lock()
	st.done[cell]++
	st.doneIDs = append(st.doneIDs, admitted.ID)
	st.mu.Unlock()
}

// readRun reads one finished job back and checks it is done with every
// rep's time.
func (c *client) readRun(b *bench, env *serveEnv, id string) (jobView, bool) {
	var v jobView
	code, err := c.get(env.url+"/runs/"+url.PathEscape(id), &v)
	switch {
	case err != nil || code != http.StatusOK:
		b.fail("read %s: status %d: %v", id, code, err)
	case v.ID != id || v.Status != "done" || v.Result == nil || len(v.Result.TimesNS) != jobReps:
		b.fail("read %s: got id %q status %q with an incomplete result", id, v.ID, v.Status)
	default:
		b.ok()
		return v, true
	}
	return v, false
}

// compareView is the part of GET /compare the benchmark checks.
type compareView struct {
	Base struct {
		Reps int `json:"reps"`
	} `json:"base"`
	Target struct {
		Reps int `json:"reps"`
	} `json:"target"`
	Speedup float64 `json:"speedup"`
	CI      struct {
		Lo float64 `json:"lo"`
		Hi float64 `json:"hi"`
	} `json:"ci"`
}

// readLoop is the probe's reading connection: until stop closes it
// alternates GET /compare over workloads finished under both kits with
// GET /runs/{id} of finished jobs, sending each read as soon as the last
// one returned.
func (c *client) readLoop(b *bench, env *serveEnv, st *jobStream, r *serviceRun, stop <-chan struct{}) {
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		start := time.Now()
		var read bool
		if k%2 == 0 {
			read = c.compare(b, env, st, k/2)
		} else {
			st.mu.Lock()
			var id string
			if n := len(st.doneIDs); n > 0 {
				id = st.doneIDs[(k/2)%n]
			}
			st.mu.Unlock()
			if id != "" {
				c.readRun(b, env, id)
				read = true
			}
		}
		if !read {
			// Nothing has finished under both kits yet.
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			continue
		}
		r.mu.Lock()
		r.Reads = append(r.Reads, ms(time.Since(start)))
		r.mu.Unlock()
	}
}

// compare reads GET /compare for the k-th workload (round-robin) finished
// under both kits, and checks each side's sample count against the ledger:
// at least the reps of the jobs completed before the request, at most
// those of the jobs submitted by its end.
func (c *client) compare(b *bench, env *serveEnv, st *jobStream, k int) bool {
	st.mu.Lock()
	var wl string
	var lo [2]int
	for n := range st.members {
		m := st.members[(k+n)%len(st.members)]
		if st.done[cellKey(m.name, "classic")] > 0 && st.done[cellKey(m.name, "lockfree")] > 0 {
			wl = m.name
			lo = [2]int{st.done[cellKey(wl, "classic")] * jobReps, st.done[cellKey(wl, "lockfree")] * jobReps}
			break
		}
	}
	st.mu.Unlock()
	if wl == "" {
		return false
	}
	var v compareView
	code, err := c.get(fmt.Sprintf("%s/compare?workload=%s&threads=%d&scale=test", env.url, url.QueryEscape(wl), threads), &v)
	st.mu.Lock()
	hi := [2]int{st.submitted[cellKey(wl, "classic")] * jobReps, st.submitted[cellKey(wl, "lockfree")] * jobReps}
	st.mu.Unlock()
	n := [2]int{v.Base.Reps, v.Target.Reps}
	switch {
	case err != nil || code != http.StatusOK:
		b.fail("compare %s: status %d: %v", wl, code, err)
	case n[0] < lo[0] || n[0] > hi[0] || n[1] < lo[1] || n[1] > hi[1] || n[0]%jobReps != 0 || n[1]%jobReps != 0:
		b.fail("compare %s: n = %v, completed jobs hold %v..%v reps", wl, n, lo, hi)
	case !validCI(v.Speedup, v.CI.Lo, v.CI.Hi):
		b.fail("compare %s: malformed interval %g [%g, %g]", wl, v.Speedup, v.CI.Lo, v.CI.Hi)
	default:
		b.ok()
	}
	return true
}
