// Package fft implements the FFT kernel of the suite: a 1-D complex FFT of
// n = 2^m points computed with the six-step radix-sqrt(n) algorithm on a
// sqrt(n) x sqrt(n) matrix, exactly as in Splash-2/3/4.
//
// The parallel structure is the original one: threads own contiguous row
// blocks; the six steps (transpose, row FFTs, twiddle scaling, transpose,
// row FFTs, transpose) are separated by barriers; and a global checksum of
// the result is reduced across threads at the end of the timed region. In
// Splash-3 the barriers are mutex/condvar constructs and the checksum is a
// lock-protected double; in Splash-4 they are an atomic barrier and a CAS
// accumulation — here both come from the configured sync4.Kit.
//
// Scale mapping: test m=12 (4K points), small m=16 (64K, the Splash default
// input), default m=20 (1M), large m=22 (4M).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sync4"
)

// Benchmark is the FFT kernel descriptor.
type Benchmark struct{}

// New returns the FFT benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "fft" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "1-D complex FFT, six-step radix-sqrt(n) algorithm (kernel)"
}

// logN maps a scale to m, with n = 2^m total points. m must be even so the
// matrix is square.
func logN(s core.Scale) int {
	switch s {
	case core.ScaleTest:
		return 12
	case core.ScaleSmall:
		return 16
	case core.ScaleDefault:
		return 20
	case core.ScaleLarge:
		return 22
	default:
		return 16
	}
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := logN(cfg.Scale)
	n := 1 << m
	rootN := 1 << (m / 2)
	if cfg.Threads > rootN {
		return nil, fmt.Errorf("fft: threads (%d) exceed matrix rows (%d)", cfg.Threads, rootN)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	inst := &instance{
		threads: cfg.Threads,
		n:       n,
		rootN:   rootN,
		x:       make([]complex128, n),
		trans:   make([]complex128, n),
		orig:    make([]complex128, n),
		barrier: cfg.Kit.NewBarrier(cfg.Threads),
		chksum:  cfg.Kit.NewAccumulator(),
	}
	for i := range inst.x {
		v := complex(rng.Float64()-0.5, rng.Float64()-0.5)
		inst.x[i] = v
		inst.orig[i] = v
	}
	return inst, nil
}

type instance struct {
	threads int
	n       int
	rootN   int
	x       []complex128 // rootN x rootN row-major working matrix
	trans   []complex128 // transpose scratch
	orig    []complex128 // pristine input for verification
	barrier sync4.Barrier
	chksum  sync4.Accumulator
	ran     bool
}

// Run implements core.Instance: the six-step FFT, forward direction.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("fft: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, in.worker)
	return nil
}

func (in *instance) worker(tid int) {
	lo, hi := core.BlockRange(tid, in.threads, in.rootN)

	// Step 1: transpose x into trans.
	in.transposeRows(in.x, in.trans, lo, hi)
	in.barrier.Wait()

	// Step 2: FFT each owned row of trans.
	for r := lo; r < hi; r++ {
		fft1D(in.trans[r*in.rootN : (r+1)*in.rootN])
	}
	// Step 3: twiddle scaling. trans row r holds original column r, so
	// element (r, c) corresponds to matrix position (row c, col r) of the
	// n-point decomposition and is scaled by w^(r*c).
	w := -2 * math.Pi / float64(in.n)
	for r := lo; r < hi; r++ {
		row := in.trans[r*in.rootN : (r+1)*in.rootN]
		for c := range row {
			angle := w * float64(r) * float64(c)
			row[c] *= cmplx.Exp(complex(0, angle))
		}
	}
	in.barrier.Wait()

	// Step 4: transpose trans back into x.
	in.transposeRows(in.trans, in.x, lo, hi)
	in.barrier.Wait()

	// Step 5: FFT each owned row of x.
	for r := lo; r < hi; r++ {
		fft1D(in.x[r*in.rootN : (r+1)*in.rootN])
	}
	in.barrier.Wait()

	// Step 6: final transpose into trans; trans holds the DFT in natural
	// order.
	in.transposeRows(in.x, in.trans, lo, hi)
	in.barrier.Wait()

	// Checksum reduction across threads (Splash-4 turns this into an
	// atomic accumulate; Splash-3 takes a lock).
	var local float64
	for r := lo; r < hi; r++ {
		row := in.trans[r*in.rootN : (r+1)*in.rootN]
		for _, v := range row {
			local += real(v) + imag(v)
		}
	}
	in.chksum.Add(local)
}

// transposeRows writes rows [lo,hi) of src into columns [lo,hi) of dst.
// Both are rootN x rootN row-major.
func (in *instance) transposeRows(src, dst []complex128, lo, hi int) {
	n := in.rootN
	for r := lo; r < hi; r++ {
		row := src[r*n : (r+1)*n]
		for c := 0; c < n; c++ {
			dst[c*n+r] = row[c]
		}
	}
}

// fft1D performs an in-place iterative radix-2 Cooley-Tukey FFT.
func fft1D(a []complex128) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// Verify implements core.Instance: it recomputes the transform with an
// independent sequential recursive FFT and compares, and cross-checks the
// reduced checksum against a direct sum of the parallel result.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("fft: verify before run")
	}
	ref := make([]complex128, in.n)
	copy(ref, in.orig)
	recursiveFFT(ref, make([]complex128, in.n), twiddles(in.n), 1)

	var maxMag float64
	for _, v := range ref {
		if m := cmplx.Abs(v); m > maxMag {
			maxMag = m
		}
	}
	tol := 1e-9 * float64(in.n) * math.Max(maxMag, 1)
	for i := range ref {
		if d := cmplx.Abs(in.trans[i] - ref[i]); d > tol {
			return fmt.Errorf("fft: element %d differs: got %v want %v (|diff|=%g, tol=%g)",
				i, in.trans[i], ref[i], d, tol)
		}
	}

	var want float64
	for _, v := range in.trans {
		want += real(v) + imag(v)
	}
	got := in.chksum.Load()
	sumTol := 1e-6 * math.Max(math.Abs(want), 1)
	if math.Abs(got-want) > sumTol {
		return fmt.Errorf("fft: checksum mismatch: reduced %g, direct %g", got, want)
	}
	return nil
}

// twiddles returns the n/2 roots w[k] = exp(-2πik/n) the oracle's
// butterflies draw from.
func twiddles(n int) []complex128 {
	w := make([]complex128, n/2)
	for k := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		w[k] = complex(c, s)
	}
	return w
}

// recursiveFFT is an out-of-band oracle: a different algorithm (recursive
// decimation-in-time) so a bug in fft1D cannot hide in Verify. It transforms
// a in place. scratch is at least as long as a and is overwritten; w is the
// twiddle table of a transform stride·len(a) long, so the roots of a
// len(a)-point transform are w[k·stride]. Each level splits a into its even
// and odd halves in scratch and recurses on them with a as their scratch,
// so the whole transform allocates nothing.
func recursiveFFT(a, scratch, w []complex128, stride int) {
	n := len(a)
	if n == 1 {
		return
	}
	h := n / 2
	even, odd := scratch[:h], scratch[h:n]
	for i := range even {
		even[i] = a[2*i]
		odd[i] = a[2*i+1]
	}
	lo, hi := a[:h], a[h:n]
	recursiveFFT(even, lo, w, 2*stride)
	recursiveFFT(odd, hi, w, 2*stride)
	for k := range lo {
		t := w[k*stride] * odd[k]
		lo[k] = even[k] + t
		hi[k] = even[k] - t
	}
}
