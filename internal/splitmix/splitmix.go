// Package splitmix is the module's one splitmix64 (Steele, Lea and Flood,
// "Fast splittable pseudorandom number generators", OOPSLA 2014): the
// finalizer every seeded decision in the module hashes through, the
// stream step the load generator draws from, and the seeded draw both
// fault injectors decide with.
package splitmix

// Gamma is the stream increment (the golden-ratio odd constant).
const Gamma = 0x9E3779B97F4A7C15

// Mix is splitmix64's output function applied to z+Gamma: a bijective
// avalanche over 64 bits, so Mix(state) is the output of the step from
// state.
func Mix(z uint64) uint64 {
	z += Gamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next advances *state by one step and returns that step's output.
func Next(state *uint64) uint64 {
	z := Mix(*state)
	*state += Gamma
	return z
}

// Draw is the deterministic uniform draw in [0, 1) for the n-th operation
// on site under seed: Mix keyed by seed^site, Mix again keyed by n, and the
// top 53 bits scaled into [0, 1). A draw depends on nothing else, so a
// fault schedule replays bit-exactly from its seed whatever the goroutine
// interleaving. sync4/faulty and cluster/netfaulty both decide with it.
func Draw(seed, site uint64, n int64) float64 {
	h := Mix(Mix(seed^site) ^ uint64(n))
	return float64(h>>11) / (1 << 53)
}
