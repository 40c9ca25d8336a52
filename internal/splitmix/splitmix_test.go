package splitmix

import "testing"

// TestReferenceVector pins the published splitmix64 outputs for state 0,
// so every seeded schedule in the module keeps its bit-exact replay.
func TestReferenceVector(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		if got := Next(&state); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
	if Mix(0) != want[0] {
		t.Fatalf("Mix(0) = %#x, want %#x", Mix(0), want[0])
	}
}

// TestDrawReferenceVector pins Draw's outputs (as 53-bit integers, which
// Draw scales exactly), so both fault injectors keep replaying every
// recorded schedule bit-for-bit.
func TestDrawReferenceVector(t *testing.T) {
	for _, c := range []struct {
		seed, site uint64
		n          int64
		want       uint64
	}{
		{0, 0, 0, 0x14e0dba5e9a32f},
		{42, 0, 1, 0x1e69fd24919268},
		{42, 0xcbf29ce484222325, 7, 0x13527a20fbe897},
		{1, 1 << 63, 1000, 0xdffc8bf973409},
	} {
		got := Draw(c.seed, c.site, c.n)
		if got != float64(c.want)/(1<<53) {
			t.Errorf("Draw(%d, %#x, %d) = %v, want %#x/2^53", c.seed, c.site, c.n, got, c.want)
		}
	}
}
