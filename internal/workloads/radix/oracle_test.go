package radix

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
)

// ran returns a test-scale instance that has run under the classic kit.
func ran(t *testing.T, seed int64) *instance {
	t.Helper()
	inst, err := New().Prepare(core.Config{Threads: 2, Kit: classic.New(), Scale: core.ScaleTest, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	return inst.(*instance)
}

// TestOracleMatchesSlicesSort keeps the comparison sort as the reference
// for the counting-sort oracle.
func TestOracleMatchesSlicesSort(t *testing.T) {
	inputs := [][]int64{
		{1<<keyBits - 1, 0, 1 << oracleBits, oracleMask, 1<<oracleBits + 1, 0, 5, 1<<keyBits - 1},
	}
	for _, seed := range []int64{0, 1, 42, -7} {
		inputs = append(inputs, ran(t, seed).orig)
	}
	for i, keys := range inputs {
		orig := slices.Clone(keys)
		want := slices.Clone(keys)
		slices.Sort(want)
		if got := countingSort(keys); !slices.Equal(got, want) {
			t.Errorf("input %d: counting sort disagrees with slices.Sort", i)
		}
		if !slices.Equal(keys, orig) {
			t.Errorf("input %d: counting sort modified its input", i)
		}
	}
}

// firstStep returns an index i with keys[i] < keys[i+1].
func firstStep(t *testing.T, keys []int64) int {
	t.Helper()
	for i := 0; i+1 < len(keys); i++ {
		if keys[i] != keys[i+1] {
			return i
		}
	}
	t.Fatal("no two distinct adjacent keys")
	return 0
}

func TestVerifyRejectsSwappedKeys(t *testing.T) {
	in := ran(t, 3)
	i := firstStep(t, in.keys)
	in.keys[i], in.keys[i+1] = in.keys[i+1], in.keys[i]
	if err := in.Verify(); err == nil {
		t.Fatal("Verify accepted two adjacent keys out of order")
	}
}

// TestVerifyRejectsNonPermutation overwrites a key with its neighbour: the
// output stays sorted but is no longer a permutation of the input.
func TestVerifyRejectsNonPermutation(t *testing.T) {
	in := ran(t, 3)
	i := firstStep(t, in.keys)
	in.keys[i+1] = in.keys[i]
	if !slices.IsSorted(in.keys) {
		t.Fatal("test setup: output no longer sorted")
	}
	if err := in.Verify(); err == nil {
		t.Fatal("Verify accepted a sorted output that is not a permutation of the input")
	}
}
