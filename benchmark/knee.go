package main

// Probe is one step of a knee search: the offered rate and whether the
// target met its limits there.
type Probe struct {
	Rate float64
	Pass bool
}

// KneeSearch finds the highest offered rate at which probe passes. It
// starts at start and multiplies the rate by 1.5 until a probe fails,
// then bisects the bracket between the last pass and the first failure
// four times. It never calls probe more than maxProbes times, and
// returns the highest passing rate (0 when none passed) with every
// probe in order.
func KneeSearch(start float64, maxProbes int, probe func(rate float64) bool) (float64, []Probe) {
	var probes []Probe
	try := func(r float64) bool {
		ok := probe(r)
		probes = append(probes, Probe{Rate: r, Pass: ok})
		return ok
	}
	lo, hi := 0.0, 0.0
	for r := start; len(probes) < maxProbes; r *= 1.5 {
		if !try(r) {
			hi = r
			break
		}
		lo = r
	}
	if hi == 0 {
		return lo, probes
	}
	for i := 0; i < 4 && len(probes) < maxProbes; i++ {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}
