// Package splitmix is the module's one splitmix64 (Steele, Lea and Flood,
// "Fast splittable pseudorandom number generators", OOPSLA 2014): the
// finalizer every seeded decision in the module hashes through, and the
// stream step the load generator draws from.
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
