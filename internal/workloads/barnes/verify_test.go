package barnes

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
)

// ran returns a 2-thread test-scale instance that has run under the
// classic kit.
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

// TestVerifyAcceptsNearCancellingBody pins seed 271, where the forces on
// one sampled body nearly cancel: its exact |a| (0.072) is under a tenth of
// the sample median (0.821). The tree walk's absolute error on it (0.029)
// is in line with the other samples' (up to 0.028) but 40 % of its |a|.
func TestVerifyAcceptsNearCancellingBody(t *testing.T) {
	in := ran(t, 271)
	_, exact := in.accelSamples()
	mags, med := magnitudes(exact)
	if lo := slices.Min(mags); lo > 0.2*med {
		t.Fatalf("seed 271 no longer has a near-cancelling sample (min |a| %g, median %g)", lo, med)
	}
	if err := in.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsPerturbedAcceleration pushes the tree-walk acceleration
// of the sample with the smallest |a| further along its error by 30 % of
// the sample median; the per-body 25 % bound must catch it.
func TestVerifyRejectsPerturbedAcceleration(t *testing.T) {
	for _, seed := range []int64{1, 271} {
		in := ran(t, seed)
		bodies, exact := in.accelSamples()
		mags, med := magnitudes(exact)
		k := 0
		for j := range mags {
			if mags[j] < mags[k] {
				k = j
			}
		}
		b, a := bodies[k], exact[k]
		e := [3]float64{in.acc[3*b] - a[0], in.acc[3*b+1] - a[1], in.acc[3*b+2] - a[2]}
		en := norm(e[0], e[1], e[2])
		if en == 0 {
			e, en = [3]float64{1, 0, 0}, 1
		}
		for i := range e {
			in.acc[3*b+i] += 0.3 * med * e[i] / en
		}
		if err := in.Verify(); err == nil {
			t.Errorf("seed %d: Verify accepted body %d's acceleration off by 30%% of the sample median", seed, b)
		}
	}
}
