package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/server"
)

// testBench is a resolver-injected workload: instant by default, or held
// in-flight by a gate channel so tests can back up a node's admission ring.
type testBench struct {
	name string
	gate chan struct{} // nil runs instantly
}

func (b *testBench) Name() string        { return b.name }
func (b *testBench) Description() string { return "cluster test bench" }
func (b *testBench) Prepare(core.Config) (core.Instance, error) {
	return testInstance{b: b}, nil
}

type testInstance struct{ b *testBench }

func (i testInstance) Run() error {
	if i.b.gate != nil {
		<-i.b.gate
	}
	return nil
}
func (i testInstance) Verify() error { return nil }

// testNode is one in-process cluster node on a loopback listener.
type testNode struct {
	id   string
	base string
	srv  *server.Server
	cl   *Cluster
}

// startTestCluster brings up one node per ID, fully meshed on loopback,
// with fast background intervals. tweak (optional) adjusts each node's
// server and cluster configs before construction; the server's Resolver
// defaults to an instant bench for every workload name.
func startTestCluster(t *testing.T, ids []string, tweak func(id string, scfg *server.Config, ccfg *Config)) map[string]*testNode {
	t.Helper()
	dir := t.TempDir()
	nodes := make(map[string]*testNode, len(ids))
	listeners := make(map[string]net.Listener, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = ln
		nodes[id] = &testNode{id: id, base: "http://" + ln.Addr().String()}
	}
	for _, id := range ids {
		store, err := resultstore.Open(filepath.Join(dir, id+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		scfg := server.Config{
			Store:  store,
			NodeID: id,
			Resolver: func(name string) (core.Benchmark, error) {
				return &testBench{name: name}, nil
			},
			Workers:    2,
			JobTimeout: 30 * time.Second,
		}
		peers := make(map[string]string, len(ids)-1)
		for _, other := range ids {
			if other != id {
				peers[other] = nodes[other].base
			}
		}
		ccfg := Config{
			Self:           id,
			Peers:          peers,
			HealthInterval: 20 * time.Millisecond,
			ShipInterval:   10 * time.Millisecond,
			StealInterval:  10 * time.Millisecond,
			StealBatch:     4,
			ReclaimAfter:   10 * time.Second,
			HTTPTimeout:    5 * time.Second,
			Logf:           t.Logf,
		}
		if tweak != nil {
			tweak(id, &scfg, &ccfg)
		}
		srv, err := server.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		ccfg.Server = srv
		cl, err := New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		n := nodes[id]
		n.srv, n.cl = srv, cl
		hs := &http.Server{Handler: cl.Handler()}
		go hs.Serve(listeners[id])
		cl.Start()
		t.Cleanup(func() {
			cl.Stop()
			srv.Close()
			hs.Close()
			store.Close()
		})
	}
	// Routing and stealing are meaningless until the mesh sees itself up.
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for len(n.cl.healthyNodes()) != len(ids) {
			if time.Now().After(deadline) {
				t.Fatalf("node %s never saw the full mesh healthy", n.id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nodes
}

func specBody(workload, kit string, seed int64) string {
	return fmt.Sprintf(`{"workload":%q,"kit":%q,"threads":2,"scale":"test","seed":%d,"reps":2}`,
		workload, kit, seed)
}

// submitTo POSTs a spec to one node (routed unless pin), returning the job
// ID from the 202/200 response.
func submitTo(t *testing.T, base, body string, pin bool) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if pin {
		req.Header.Set(forwardedByHeader, "test-pin") // hop guard forces local admission
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /runs to %s: %d %s", base, resp.StatusCode, raw)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &view); err != nil || view.ID == "" {
		t.Fatalf("submission response %q: %v", raw, err)
	}
	return view.ID
}

// jobView polls GET /runs/{id} on base until the job is terminal and
// returns the final view.
func jobView(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view map[string]any
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view["status"] {
		case "done", "error":
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

func TestClusterRoutesSameSpecToOneOwner(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b"}, nil)
	for seed := int64(0); seed < 6; seed++ {
		body := specBody("fft", "lockfree", seed)
		idA := submitTo(t, nodes["a"].base, body, false)
		idB := submitTo(t, nodes["b"].base, body, false)
		ownA, ownB := JobOwner(idA), JobOwner(idB)
		if ownA == "" || ownA != ownB {
			t.Fatalf("seed %d: same spec owned by %q (via a) and %q (via b)", seed, ownA, ownB)
		}
		// The terminal view must be reachable through either node: the
		// non-owner proxies GET /runs/{id} by the ID's embedded owner.
		if v := jobView(t, nodes["a"].base, idA); v["status"] != "done" {
			t.Fatalf("seed %d: job %s finished %v", seed, idA, v["status"])
		}
		if v := jobView(t, nodes["b"].base, idA); v["status"] != "done" {
			t.Fatalf("seed %d: job %s not readable via the other node: %v", seed, idA, v)
		}
	}
}

func TestClusterStealsFromBackloggedPeer(t *testing.T) {
	gate := make(chan struct{})
	nodes := startTestCluster(t, []string{"a", "b"}, func(id string, scfg *server.Config, ccfg *Config) {
		if id == "a" {
			// One worker, gated workloads: the first job wedges the worker
			// and everything behind it queues, waiting to be stolen.
			scfg.Workers = 1
			scfg.Resolver = func(name string) (core.Benchmark, error) {
				return &testBench{name: name, gate: gate}, nil
			}
			ccfg.StealInterval = time.Hour // a never steals; b is the only thief
		}
	})
	a, b := nodes["a"], nodes["b"]

	var ids []string
	for seed := int64(0); seed < 5; seed++ {
		ids = append(ids, submitTo(t, a.base, specBody("fft", "lockfree", seed), true))
	}
	// b's stealer must notice a's backlog and pull jobs across.
	deadline := time.Now().Add(10 * time.Second)
	for b.cl.stolenTotal.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("b stole nothing from a's backlog (errors=%d)", b.cl.stealErrors.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate) // release a's wedged worker
	stolen := 0
	for _, id := range ids {
		v := jobView(t, a.base, id)
		if v["status"] != "done" {
			t.Fatalf("job %s finished %v, want done", id, v["status"])
		}
		if owner := JobOwner(id); owner != "a" {
			t.Fatalf("pinned job %s owned by %q, want a", id, owner)
		}
		if v["ran_on"] == "b" {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("no job view names b as the executing node")
	}
	if got := a.srv.StolenCount(); got != 0 {
		t.Fatalf("%d jobs still out on loan after all completed", got)
	}
	// Every stolen job was journaled by its owner: a's store holds all
	// five records, each naming node a.
	for _, id := range ids {
		rec, ok := a.srv.Store().ByID(id)
		if !ok {
			t.Fatalf("owner journal missing record %s", id)
		}
		if rec.Node != "a" {
			t.Fatalf("record %s journaled with node %q, want a", id, rec.Node)
		}
	}
}

func TestClusterCompareIsCensusIdenticalAcrossNodes(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b", "c"}, nil)
	// Build one /compare population (both kits, several seeds), submitted
	// through different nodes so ownership spreads.
	entry := []string{"a", "b", "c"}
	var ids []string
	for seed := int64(0); seed < 4; seed++ {
		via := nodes[entry[seed%3]].base
		ids = append(ids, submitTo(t, via, specBody("fft", "classic", seed), false))
		ids = append(ids, submitTo(t, via, specBody("fft", "lockfree", seed), false))
	}
	for _, id := range ids {
		owner := JobOwner(id)
		if v := jobView(t, nodes[owner].base, id); v["status"] != "done" {
			t.Fatalf("job %s finished %v", id, v["status"])
		}
	}
	// Wait for replication to converge: every node's view of every peer
	// journal is caught up and holds that peer's records.
	counts := map[string]int{}
	for _, id := range ids {
		counts[JobOwner(id)]++
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes {
		for _, pid := range []string{"a", "b", "c"} {
			if pid == n.id {
				continue
			}
			p := n.cl.peers[pid]
			for p.replica.Len() < counts[pid] || p.shipLag() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("node %s never caught up on %s: %d/%d records, lag %d",
						n.id, pid, p.replica.Len(), counts[pid], p.shipLag())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	// The census check: a fixed bootstrap query must answer byte-for-byte
	// identically from every node, replicas included.
	const query = "/compare?workload=fft&threads=2&scale=test&seed=7&resamples=300"
	var want []byte
	for _, id := range []string{"a", "b", "c"} {
		resp, err := http.Get(nodes[id].base + query)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compare via %s: %d %s", id, resp.StatusCode, raw)
		}
		if want == nil {
			want = raw
			continue
		}
		if string(raw) != string(want) {
			t.Fatalf("compare diverges between nodes:\n a: %s\n%s: %s", want, id, raw)
		}
	}
	if len(want) == 0 {
		t.Fatal("empty compare body")
	}
}
