package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
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

// directDFT is the O(n²) definition of the transform.
func directDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := range out {
		var s complex128
		for j, v := range x {
			s += v * cmplx.Exp(complex(0, -2*math.Pi*float64(j*k%n)/float64(n)))
		}
		out[k] = s
	}
	return out
}

func TestOracleMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 8, 64, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		want := directDFT(x)
		got := append([]complex128(nil), x...)
		recursiveFFT(got, make([]complex128, n), twiddles(n), 1)
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-12*float64(n) {
				t.Fatalf("n=%d: X[%d] = %v, direct DFT %v (|diff|=%g)", n, k, got[k], want[k], d)
			}
		}
	}
}

// TestParsevalEnergy checks Parseval's theorem, n·Σ|x|² = Σ|X|², on the
// parallel result: an energy check independent of any reference transform.
func TestParsevalEnergy(t *testing.T) {
	in := ran(t, 7)
	var ex, eX float64
	for i := range in.orig {
		ex += real(in.orig[i])*real(in.orig[i]) + imag(in.orig[i])*imag(in.orig[i])
		eX += real(in.trans[i])*real(in.trans[i]) + imag(in.trans[i])*imag(in.trans[i])
	}
	ex *= float64(in.n)
	if rel := math.Abs(ex-eX) / ex; rel > 1e-9 {
		t.Fatalf("n·Σ|x|² = %g, Σ|X|² = %g (relative difference %g)", ex, eX, rel)
	}
}

// tolerance is Verify's element tolerance for the instance's result.
func tolerance(in *instance) float64 {
	var maxMag float64
	for _, v := range in.trans {
		maxMag = math.Max(maxMag, cmplx.Abs(v))
	}
	return 1e-9 * float64(in.n) * math.Max(maxMag, 1)
}

// TestVerifyElementTolerance moves two elements by ±d, which leaves the
// direct checksum as it was, so only the element comparison can object.
func TestVerifyElementTolerance(t *testing.T) {
	for _, tc := range []struct {
		scale  float64
		reject bool
	}{{0.5, false}, {2, true}} {
		in := ran(t, 3)
		d := complex(tc.scale*tolerance(in), 0)
		in.trans[17] += d
		in.trans[900] -= d
		err := in.Verify()
		if tc.reject && err == nil {
			t.Errorf("Verify accepted an element off by %g tolerances", tc.scale)
		}
		if !tc.reject && err != nil {
			t.Errorf("Verify rejected elements off by %g tolerances: %v", tc.scale, err)
		}
	}
}

func TestVerifyRejectsWrongChecksum(t *testing.T) {
	in := ran(t, 3)
	in.chksum.Add(1e-4 * math.Max(math.Abs(in.chksum.Load()), 1))
	if err := in.Verify(); err == nil {
		t.Fatal("Verify accepted a wrong reduced checksum")
	}
}

// TestVerifyAllocsConstant pins the oracle's allocations: the reference,
// one scratch buffer and the twiddle table, independent of n.
func TestVerifyAllocsConstant(t *testing.T) {
	in := ran(t, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if err := in.Verify(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Verify allocates %v slices per call, want at most 4", allocs)
	}
}
