package cluster

import (
	"fmt"
	"testing"
)

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fft|lockfree|%d|test|%d|8|0", 1+i%8, i)
	}
	return keys
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := newRing([]string{"a", "b", "c"})
	b := newRing([]string{"c", "a", "b"})
	for _, k := range sampleKeys(256) {
		if got, want := b.owner(k), a.owner(k); got != want {
			t.Fatalf("owner(%q) depends on construction order: %q vs %q", k, got, want)
		}
		if again := a.owner(k); again != a.owner(k) {
			t.Fatalf("owner(%q) is not deterministic: %q vs %q", k, again, a.owner(k))
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := newRing([]string{"a", "b", "c"})
	counts := map[string]int{}
	keys := sampleKeys(600)
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	for _, id := range []string{"a", "b", "c"} {
		// With 64 vnodes per node, a node owning under 10% of a 600-key
		// sample would indicate a broken hash, not bad luck.
		if counts[id] < len(keys)/10 {
			t.Errorf("node %s owns only %d/%d keys: %v", id, counts[id], len(keys), counts)
		}
	}
}

func TestRingRemovalOnlyMovesTheRemovedNodesKeys(t *testing.T) {
	full := newRing([]string{"a", "b", "c"})
	sansC := newRing([]string{"a", "b"})
	moved := 0
	for _, k := range sampleKeys(600) {
		was := full.owner(k)
		now := sansC.owner(k)
		if was != "c" && now != was {
			t.Fatalf("key %q moved %s→%s although its owner never left", k, was, now)
		}
		if was == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("sample gave node c no keys; spread test should have caught this")
	}
}
